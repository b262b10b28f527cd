// Package metrics implements the lightweight instrumentation used by the
// DRAMS experiment harness: counters and latency histograms with
// percentile summaries. All types are safe for concurrent use and the zero
// value of Counter is ready to use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use.
type Counter struct{ n atomic.Int64 }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (which must be >= 0) to the counter.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Histogram records observations and reports percentile summaries. It keeps
// HDR-style log-bucketed counts — each power of two is split into 2^subBits
// linear sub-buckets — so quantiles carry a bounded relative error
// (<= 2^-subBits ≈ 0.1%) no matter how many samples are observed or how
// skewed they are. Memory is proportional to the number of distinct buckets
// touched (the span of the data), never to the sample count.
//
// The samples are spread over a fixed set of shards, each under its own
// lock. Observe takes the first shard no other caller holds, so concurrent
// observers do not wait on each other and a lone one always lands in the
// first shard; readers merge the shards, and see what one lock over every
// sample would hold (Sum up to float rounding).
type Histogram struct {
	shards [histShards]histShard
}

// histShards is the number of shards a Histogram keeps: more than the
// observers that run at once on a small host.
const histShards = 8

// histShard is one part of a Histogram's samples, under its own lock.
type histShard struct {
	mu sync.Mutex
	samples
	_ [64]byte // keeps neighbouring shards' locks off one cache line
}

// samples is a set of observations: their log-bucket counts, and their
// exact count, sums and extremes. The first sample makes the buckets map
// and sets min and max from ±Inf.
type samples struct {
	buckets    map[int32]int64
	count      int64
	sum, sumSq float64
	min, max   float64
}

// subBits fixes the per-octave resolution: 1024 linear sub-buckets per
// power of two bound the relative quantile error at 1/1024.
const subBits = 10

// NewHistogram returns an empty Histogram.
func NewHistogram() *Histogram { return new(Histogram) }

// bucketKey maps a value to its log-bucket. Zero (and non-finite values,
// which are clamped) get the reserved key 0; negative values mirror the
// positive layout with a negative key.
func bucketKey(v float64) int32 {
	if v == 0 || math.IsNaN(v) {
		return 0
	}
	neg := v < 0
	if neg {
		v = -v
	}
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac ∈ [0.5, 1)
	if math.IsInf(v, 0) {
		frac, exp = 0.5, 1025
	}
	sub := int32((frac*2 - 1) * (1 << subBits)) // ∈ [0, 2^subBits)
	if sub >= 1<<subBits {
		sub = 1<<subBits - 1
	}
	key := (int32(exp+1100) << subBits) | sub
	if neg {
		return -key
	}
	return key
}

// bucketBounds returns the [lo, hi) value range represented by a key.
func bucketBounds(key int32) (lo, hi float64) {
	if key == 0 {
		return 0, 0
	}
	neg := key < 0
	if neg {
		key = -key
	}
	exp := int(key>>subBits) - 1100
	sub := float64(key & (1<<subBits - 1))
	lo = math.Ldexp(1+sub/(1<<subBits), exp-1)
	hi = math.Ldexp(1+(sub+1)/(1<<subBits), exp-1)
	if neg {
		return -hi, -lo
	}
	return lo, hi
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i := range h.shards {
		if s := &h.shards[i]; s.mu.TryLock() {
			s.observe(v)
			s.mu.Unlock()
			return
		}
	}
	// Every shard is held: wait for the first, as a single lock would.
	s := &h.shards[0]
	s.mu.Lock()
	s.observe(v)
	s.mu.Unlock()
}

// observe adds v.
func (s *samples) observe(v float64) {
	if s.buckets == nil {
		s.buckets = make(map[int32]int64)
		s.min, s.max = math.Inf(1), math.Inf(-1)
	}
	s.count++
	s.sum += v
	s.sumSq += v * v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.buckets[bucketKey(v)]++
}

// add adds o's observations.
func (s *samples) add(o *samples) {
	if o.count == 0 {
		return
	}
	if s.buckets == nil {
		s.buckets = make(map[int32]int64, len(o.buckets))
		s.min, s.max = math.Inf(1), math.Inf(-1)
	}
	for key, c := range o.buckets {
		s.buckets[key] += c
	}
	s.count += o.count
	s.sum += o.sum
	s.sumSq += o.sumSq
	s.min, s.max = math.Min(s.min, o.min), math.Max(s.max, o.max)
}

// merge returns every shard's samples together, taking each shard's lock
// in turn.
func (h *Histogram) merge() samples {
	var m samples
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		m.add(&s.samples)
		s.mu.Unlock()
	}
	return m
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// bucketRow is one populated bucket, ordered by represented value.
type bucketRow struct {
	lo, hi float64
	count  int64
}

// sortedBuckets lists the populated buckets in ascending value order.
func sortedBuckets(buckets map[int32]int64) []bucketRow {
	rows := make([]bucketRow, 0, len(buckets))
	for key, c := range buckets {
		lo, hi := bucketBounds(key)
		rows = append(rows, bucketRow{lo: lo, hi: hi, count: c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].lo < rows[j].lo })
	return rows
}

// quantileFrom walks the cumulative bucket counts to the q-quantile rank
// and interpolates linearly inside the landing bucket. Results are clamped
// to the exact observed [min, max].
func quantileFrom(rows []bucketRow, count int64, mn, mx float64, q float64) float64 {
	if count == 0 {
		return 0
	}
	if q <= 0 {
		return mn
	}
	if q >= 1 {
		return mx
	}
	rank := q * float64(count-1)
	cum := int64(0)
	for _, r := range rows {
		if rank < float64(cum+r.count) {
			within := (rank - float64(cum) + 0.5) / float64(r.count)
			v := r.lo + (r.hi-r.lo)*within
			return math.Max(mn, math.Min(mx, v))
		}
		cum += r.count
	}
	return mx
}

// Quantile returns the q-quantile (0 <= q <= 1) with relative error bounded
// by the bucket resolution (~0.1%). Returns 0 when empty; q=0 and q=1
// return the exact min and max.
func (h *Histogram) Quantile(q float64) float64 {
	m := h.merge()
	return quantileFrom(sortedBuckets(m.buckets), m.count, m.min, m.max, q)
}

// octaveUpper returns the smallest power-of-two upper bound that covers
// every value in the bucket identified by key. Coarsening the 1024
// sub-buckets per octave down to one exposition bucket per octave keeps
// cumulative exports bounded (one bucket per power of two spanned by the
// data) while staying a valid upper bound for Prometheus `le` semantics.
func octaveUpper(key int32) float64 {
	if key == 0 {
		return 0
	}
	neg := key < 0
	if neg {
		key = -key
	}
	exp := int(key>>subBits) - 1100
	if neg {
		// Negative bucket holds values in (-2^exp, -2^(exp-1)].
		return -math.Ldexp(1, exp-1)
	}
	// Positive bucket holds values in [2^(exp-1), 2^exp).
	return math.Ldexp(1, exp)
}

// HistBucket is one cumulative exposition bucket: the count of
// observations with value <= LE.
type HistBucket struct {
	LE    float64
	Count int64
}

// HistExport is a Prometheus-shaped snapshot of a Histogram: cumulative
// buckets at power-of-two upper bounds derived from the log-bucketed
// storage, plus the exact running count and sum.
type HistExport struct {
	Count   int64
	Sum     float64
	Buckets []HistBucket // ascending LE, cumulative counts; excludes +Inf
}

// Export snapshots the histogram in cumulative-bucket form. The number of
// buckets is bounded by the octave span of the data (one per power of two
// touched), never by the sample count.
func (h *Histogram) Export() HistExport {
	m := h.merge()
	perBound := make(map[float64]int64, len(m.buckets))
	for key, c := range m.buckets {
		perBound[octaveUpper(key)] += c
	}
	out := HistExport{Count: m.count, Sum: m.sum}

	bounds := make([]float64, 0, len(perBound))
	for b := range perBound {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	cum := int64(0)
	for _, b := range bounds {
		cum += perBound[b]
		out.Buckets = append(out.Buckets, HistBucket{LE: b, Count: cum})
	}
	return out
}

// Summary is a point-in-time percentile snapshot of a Histogram.
type Summary struct {
	Count               int64
	Mean                float64
	Min, Max            float64
	P50, P90, P99, P999 float64
	StdDev              float64
	TotalObservation    float64
}

// Snapshot computes a Summary.
func (h *Histogram) Snapshot() Summary {
	m := h.merge()
	count := m.count
	sum, sumSq := m.sum, m.sumSq
	rows := sortedBuckets(m.buckets)
	mn, mx := m.min, m.max

	s := Summary{Count: count, TotalObservation: sum}
	if count == 0 {
		return s
	}
	s.Mean = sum / float64(count)
	s.Min, s.Max = mn, mx
	q := func(p float64) float64 { return quantileFrom(rows, count, mn, mx, p) }
	s.P50, s.P90, s.P99, s.P999 = q(0.50), q(0.90), q(0.99), q(0.999)
	if count > 1 {
		// Sample variance from the exact running moments.
		variance := (sumSq - float64(count)*s.Mean*s.Mean) / float64(count-1)
		if variance > 0 {
			s.StdDev = math.Sqrt(variance)
		}
	}
	return s
}

// String renders the summary as a compact single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f min=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Min, s.Max)
}

// Registry groups named histograms; counters and gauges reach exposition
// as samples from collectors over components' Stats.
//
// A metric name may carry a Prometheus-style label suffix,
// e.g. `drams_trace_stage_ms{stage="pep.decide"}`: series sharing the part
// before the brace form one metric family for exposition. Help text is
// registered per family with Help.
type Registry struct {
	mu         sync.Mutex
	histograms map[string]*Histogram
	help       map[string]string // keyed by family name
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// SplitSeries splits a series name into its family (the metric name
// proper) and the optional `{label="value",...}` suffix.
func SplitSeries(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// Help registers help text for a metric family (the series name without
// any label suffix). Registering twice keeps the first non-empty text.
func (r *Registry) Help(family, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.help[family]; !ok && help != "" {
		r.help[family] = help
	}
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Kind identifies a metric's type for exposition.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Sample is one series snapshotted from a Registry (or synthesized by a
// collector): a full series name, its kind, help text for the family, and
// either a scalar value or a histogram export.
type Sample struct {
	Name  string // full series name, may include a {label="v"} suffix
	Kind  Kind
	Help  string
	Value int64       // counter/gauge value
	Hist  *HistExport // set for KindHistogram
}

// Samples snapshots every registered histogram in cumulative-bucket form,
// sorted by family then full series name, so exposition output is
// deterministic.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hists[name] = h
	}
	help := make(map[string]string, len(hists))
	for name := range hists {
		family, _ := SplitSeries(name)
		help[family] = r.help[family]
	}
	r.mu.Unlock()

	// Histogram export takes each histogram's own lock; do it outside the
	// registry lock so a scrape never serializes against metric creation.
	out := make([]Sample, 0, len(hists))
	for name, h := range hists {
		family, _ := SplitSeries(name)
		ex := h.Export()
		out = append(out, Sample{Name: name, Kind: KindHistogram, Help: help[family], Hist: &ex})
	}
	SortSamples(out)
	return out
}

// SortSamples orders samples by family name, then by full series name —
// the exposition order (series of one family must be contiguous).
func SortSamples(s []Sample) {
	sort.Slice(s, func(i, j int) bool {
		fi, _ := SplitSeries(s[i].Name)
		fj, _ := SplitSeries(s[j].Name)
		if fi != fj {
			return fi < fj
		}
		return s[i].Name < s[j].Name
	})
}
