package metrics

import (
	"math"
	"sort"
	"testing"
)

// splitmix64 is a tiny deterministic PRNG so the accuracy pin below is
// byte-for-byte reproducible across runs and machines.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestHistogramQuantileErrorBound pins the HDR guarantee the load harness
// depends on: over 1M heavily skewed samples, every reported quantile stays
// within the log-bucket relative error bound of the exact sorted-reference
// quantile. The old reservoir-sampling histogram fails this at p99/p999 —
// under long-run open-loop workloads the reservoir under-represents the
// tail, which is precisely where SLO thresholds look.
func TestHistogramQuantileErrorBound(t *testing.T) {
	const n = 1_000_000
	h := NewHistogram()
	ref := make([]float64, 0, n)
	state := uint64(0x5eed)
	for i := 0; i < n; i++ {
		// Log-uniform over [1, 10^4): ~heavy right tail, four decades of
		// span — the shape of latency under saturation.
		u := float64(splitmix64(&state)>>11) / (1 << 53)
		v := math.Pow(10, 4*u)
		h.Observe(v)
		ref = append(ref, v)
	}
	sort.Float64s(ref)

	exact := func(q float64) float64 {
		pos := q * float64(n-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		frac := pos - float64(lo)
		return ref[lo]*(1-frac) + ref[hi]*frac
	}

	// 2^-subBits bucket resolution plus interpolation slack.
	const maxRelErr = 0.005
	for _, q := range []float64{0.50, 0.90, 0.99, 0.999, 0.9999} {
		want := exact(q)
		got := h.Quantile(q)
		rel := math.Abs(got-want) / want
		if rel > maxRelErr {
			t.Errorf("q%.4f = %.4f, exact %.4f, rel err %.5f > %.5f",
				q, got, want, rel, maxRelErr)
		}
	}

	// Extremes are exact, count is exact, mean is exact.
	if h.Quantile(0) != ref[0] || h.Quantile(1) != ref[n-1] {
		t.Errorf("extremes: q0=%v want %v, q1=%v want %v",
			h.Quantile(0), ref[0], h.Quantile(1), ref[n-1])
	}
	if h.Snapshot().Count != n {
		t.Errorf("count = %d, want %d", h.Snapshot().Count, n)
	}
	var sum float64
	for _, v := range ref {
		sum += v
	}
	if mean := h.Snapshot().Mean; math.Abs(mean-sum/n)/(sum/n) > 1e-9 {
		t.Errorf("mean = %v, want %v", mean, sum/n)
	}

	// The whole distribution fits in a bounded bucket map: four decades at
	// 1024 sub-buckets per octave is ~14 octaves ≈ 14k buckets.
	if got := h.Buckets(); got > 15_000 {
		t.Errorf("bucket count %d exceeds the log-bucket bound", got)
	}

	// Snapshot must agree with Quantile (same bucket walk).
	s := h.Snapshot()
	for _, pair := range []struct{ got, q float64 }{
		{s.P50, 0.50}, {s.P90, 0.90}, {s.P99, 0.99}, {s.P999, 0.999},
	} {
		if math.Abs(pair.got-h.Quantile(pair.q)) > 1e-9 {
			t.Errorf("snapshot p%v = %v, Quantile = %v", pair.q, pair.got, h.Quantile(pair.q))
		}
	}
}
