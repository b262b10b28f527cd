package metrics

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// lockedHistogram is the histogram as it was before it was sharded: every
// sample under one lock. The sharded Histogram must read back what it
// reads back for the same samples.
type lockedHistogram struct {
	mu         sync.Mutex
	buckets    map[int32]int64
	count      int64
	sum, sumSq float64
	min, max   float64
}

func newLockedHistogram() *lockedHistogram {
	return &lockedHistogram{buckets: map[int32]int64{}, min: math.Inf(1), max: math.Inf(-1)}
}

func (h *lockedHistogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	h.sumSq += v * v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketKey(v)]++
}

func (h *lockedHistogram) Quantile(q float64) float64 {
	return quantileFrom(sortedBuckets(h.buckets), h.count, h.min, h.max, q)
}

func (h *lockedHistogram) Snapshot() Summary {
	s := Summary{Count: h.count, TotalObservation: h.sum}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.Min, s.Max = h.min, h.max
	rows := sortedBuckets(h.buckets)
	q := func(p float64) float64 { return quantileFrom(rows, h.count, h.min, h.max, p) }
	s.P50, s.P90, s.P99, s.P999 = q(0.50), q(0.90), q(0.99), q(0.999)
	if h.count > 1 {
		if variance := (h.sumSq - float64(h.count)*s.Mean*s.Mean) / float64(h.count-1); variance > 0 {
			s.StdDev = math.Sqrt(variance)
		}
	}
	return s
}

func (h *lockedHistogram) Export() HistExport {
	perBound := map[float64]int64{}
	for key, c := range h.buckets {
		perBound[octaveUpper(key)] += c
	}
	bounds := make([]float64, 0, len(perBound))
	for b := range perBound {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	out := HistExport{Count: h.count, Sum: h.sum}
	cum := int64(0)
	for _, b := range bounds {
		cum += perBound[b]
		out.Buckets = append(out.Buckets, HistBucket{LE: b, Count: cum})
	}
	return out
}

// closeRel reports whether a and b agree to within rel of their size.
func closeRel(a, b, rel float64) bool {
	return a == b || math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// sameAsLocked fails t unless h reads back what ref does: quantiles, bucket
// counts and extremes exactly, the sums within 1e-9 relative.
func sameAsLocked(t *testing.T, name string, h *Histogram, ref *lockedHistogram) {
	t.Helper()
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, want := h.Quantile(q), ref.Quantile(q); got != want {
			t.Errorf("%s: Quantile(%v) = %v, single lock %v", name, q, got, want)
		}
	}
	got, want := h.Snapshot(), ref.Snapshot()
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max ||
		got.P50 != want.P50 || got.P90 != want.P90 || got.P99 != want.P99 || got.P999 != want.P999 {
		t.Errorf("%s: Snapshot = %+v, single lock %+v", name, got, want)
	}
	if !closeRel(got.TotalObservation, want.TotalObservation, 1e-9) || !closeRel(got.Mean, want.Mean, 1e-9) ||
		!closeRel(got.StdDev, want.StdDev, 1e-6) {
		t.Errorf("%s: Snapshot sums = %v/%v/%v, single lock %v/%v/%v", name,
			got.TotalObservation, got.Mean, got.StdDev, want.TotalObservation, want.Mean, want.StdDev)
	}
	gotEx, wantEx := h.Export(), ref.Export()
	if gotEx.Count != wantEx.Count || !reflect.DeepEqual(gotEx.Buckets, wantEx.Buckets) {
		t.Errorf("%s: Export = %+v, single lock %+v", name, gotEx, wantEx)
	}
	if !closeRel(gotEx.Sum, wantEx.Sum, 1e-9) {
		t.Errorf("%s: Export.Sum = %v, single lock %v", name, gotEx.Sum, wantEx.Sum)
	}
}

// Spread over every shard, random samples read back as they do under one
// lock. Holding the first k shards' locks sends a sample to shard k, as a
// concurrent observer would.
func TestHistogramShardsMatchSingleLock(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	dists := map[string]func() float64{
		"log-uniform latency": func() float64 { return math.Pow(10, 4*rng.Float64()) },
		"exponential":         func() float64 { return rng.ExpFloat64() },
		"signed with zeros": func() float64 {
			if rng.IntN(5) == 0 {
				return 0
			}
			return rng.NormFloat64() * 100
		},
		"one value": func() float64 { return 1.5 },
	}
	for name, draw := range dists {
		for _, n := range []int{1, 7, 1000, 5000} {
			h, ref := NewHistogram(), newLockedHistogram()
			for i := 0; i < n; i++ {
				v := draw()
				k := rng.IntN(histShards)
				for j := 0; j < k; j++ {
					h.shards[j].mu.Lock()
				}
				h.Observe(v)
				for j := 0; j < k; j++ {
					h.shards[j].mu.Unlock()
				}
				ref.Observe(v)
			}
			sameAsLocked(t, name, h, ref)
		}
	}
	sameAsLocked(t, "empty", NewHistogram(), newLockedHistogram())
}

// Concurrent observers lose no sample, and the merged read agrees with the
// same samples observed one by one.
func TestHistogramConcurrentObserveCounts(t *testing.T) {
	const workers, perWorker = 8, 5000
	h, ref := NewHistogram(), newLockedHistogram()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w*perWorker+i) / 7)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			ref.Observe(float64(w*perWorker+i) / 7)
		}
	}
	// Readers merge while observers run.
	for h.Snapshot().Count < workers*perWorker {
		_ = h.Export()
	}
	wg.Wait()
	if n := h.Snapshot().Count; n != workers*perWorker {
		t.Fatalf("count = %d, want %d", n, workers*perWorker)
	}
	sameAsLocked(t, "concurrent", h, ref)
}
