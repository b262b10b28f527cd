package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// Buckets returns the number of populated log-buckets — the memory bound of
// the histogram, proportional to the data's span, not its volume.
func (h *Histogram) Buckets() int { return len(h.merge().buckets) }

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	c.Add(-3) // negative deltas ignored
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("concurrent counter = %d, want 16000", got)
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Snapshot().Count != 100 {
		t.Fatalf("count = %d", h.Snapshot().Count)
	}
	if got := h.Snapshot().Mean; math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", got)
	}
	if h.Snapshot().Min != 1 || h.Snapshot().Max != 100 {
		t.Fatalf("min/max = %v/%v", h.Snapshot().Min, h.Snapshot().Max)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
		tol  float64
	}{
		{0, 1, 0}, {1, 1000, 0}, {0.5, 500.5, 1}, {0.9, 900, 2}, {0.99, 990, 2},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > c.tol {
			t.Errorf("q%.2f = %v, want ~%v", c.q, got, c.want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Snapshot().Mean != 0 || h.Quantile(0.5) != 0 || h.Snapshot().Min != 0 || h.Snapshot().Max != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
}

func TestHistogramBoundedMemory(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100000; i++ {
		h.Observe(float64(i))
	}
	// Log-bucketed storage: memory tracks the data's span (octaves ×
	// sub-buckets), never the sample count.
	if got := h.Buckets(); got > 16*1024 {
		t.Fatalf("bucket count grew to %d", got)
	}
	if h.Snapshot().Count != 100000 {
		t.Fatalf("count = %d", h.Snapshot().Count)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-49999.5) > 100 {
		t.Fatalf("p50 = %v, want ~49999.5", p50)
	}
}

func TestHistogramNegativeAndZero(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{-10, -1, 0, 0, 1, 10} {
		h.Observe(v)
	}
	if h.Snapshot().Min != -10 || h.Snapshot().Max != 10 {
		t.Fatalf("min/max = %v/%v", h.Snapshot().Min, h.Snapshot().Max)
	}
	if p0 := h.Quantile(0); p0 != -10 {
		t.Fatalf("q0 = %v, want -10", p0)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50) > 0.5 {
		t.Fatalf("p50 = %v, want ~0", p50)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(1500 * time.Microsecond)
	if got := h.Snapshot().Mean; math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("duration ms = %v, want 1.5", got)
	}
}

func TestSnapshotStdDev(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Sample stddev of this classic set is ~2.138.
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("summary string: %s", s)
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	h.Observe(1)
	if r.Histogram("h") != h {
		t.Fatal("registry did not return same histogram")
	}
	if s := r.Samples(); len(s) != 1 || s[0].Name != "h" || s[0].Hist.Count != 1 {
		t.Fatalf("samples = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if h.Snapshot().Count != 8000 {
		t.Fatalf("count = %d, want 8000", h.Snapshot().Count)
	}
}

// TestHistogramExport checks the cumulative per-octave export: bounds are
// valid Prometheus `le` upper bounds, counts are cumulative and total to
// Count, and Sum is exact.
func TestHistogramExport(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{0.5, 0.7, 1.5, 3, 3.9, 100} {
		h.Observe(v)
	}
	ex := h.Export()
	if ex.Count != 6 {
		t.Fatalf("Count = %d, want 6", ex.Count)
	}
	if math.Abs(ex.Sum-109.6) > 1e-9 {
		t.Fatalf("Sum = %v, want 109.6", ex.Sum)
	}
	if len(ex.Buckets) == 0 {
		t.Fatal("no buckets exported")
	}
	prevLE := math.Inf(-1)
	prevCount := int64(0)
	for _, b := range ex.Buckets {
		if b.LE <= prevLE {
			t.Fatalf("bucket bounds not strictly ascending: %v after %v", b.LE, prevLE)
		}
		if b.Count < prevCount {
			t.Fatalf("bucket counts not cumulative: %d after %d", b.Count, prevCount)
		}
		prevLE, prevCount = b.LE, b.Count
	}
	if last := ex.Buckets[len(ex.Buckets)-1]; last.Count != ex.Count {
		t.Fatalf("last cumulative count = %d, want %d", last.Count, ex.Count)
	}
	// Every observation must be counted by the first bucket whose LE covers it.
	covered := func(v float64) int64 {
		for _, b := range ex.Buckets {
			if v <= b.LE {
				return b.Count
			}
		}
		return -1
	}
	if c := covered(0.5); c < 2 { // 0.5 and 0.7 both fall under le=1
		t.Fatalf("le covering 0.5 counts %d, want >= 2", c)
	}
	// One exposition bucket per octave: 6 values spanning [0.5, 128) touch
	// at most 9 octaves.
	if len(ex.Buckets) > 9 {
		t.Fatalf("expected per-octave coarsening, got %d buckets", len(ex.Buckets))
	}
}

// TestRegistrySamples checks sorted family grouping, help plumbing, and
// label-suffix splitting.
func TestRegistrySamples(t *testing.T) {
	r := NewRegistry()
	r.Help("drams_trace_stage_ms", "Span duration by stage.")
	r.Histogram(`drams_trace_stage_ms{stage="pep.decide"}`).Observe(1.5)
	r.Histogram(`drams_trace_stage_ms{stage="chain.anchor"}`).Observe(2)
	r.Histogram("drams_alpha_ms").Observe(3)

	s := r.Samples()
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3", len(s))
	}
	var names []string
	for _, smp := range s {
		names = append(names, smp.Name)
	}
	want := []string{
		"drams_alpha_ms",
		`drams_trace_stage_ms{stage="chain.anchor"}`,
		`drams_trace_stage_ms{stage="pep.decide"}`,
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("sample order: got %v, want %v", names, want)
		}
	}
	for _, smp := range s {
		if smp.Kind != KindHistogram || smp.Hist == nil || smp.Hist.Count != 1 {
			t.Fatalf("histogram sample malformed: %+v", smp)
		}
		wantHelp := ""
		if fam, _ := SplitSeries(smp.Name); fam == "drams_trace_stage_ms" {
			wantHelp = "Span duration by stage."
		}
		if smp.Help != wantHelp {
			t.Fatalf("%s: help = %q, want %q", smp.Name, smp.Help, wantHelp)
		}
	}
}

func TestSplitSeries(t *testing.T) {
	fam, lab := SplitSeries(`a_total{x="1",y="2"}`)
	if fam != "a_total" || lab != `{x="1",y="2"}` {
		t.Fatalf("got %q %q", fam, lab)
	}
	fam, lab = SplitSeries("plain")
	if fam != "plain" || lab != "" {
		t.Fatalf("got %q %q", fam, lab)
	}
}
