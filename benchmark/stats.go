package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond an upper percentile before
// it is reported: with fewer, the figure is one or two outliers and does
// not repeat between runs.
const minBeyond = 10

var errTooFewSamples = errors.New("benchmark: fewer than ten samples beyond the percentile")

// median returns the middle of the samples (mean of the two middle ones for
// an even count). It is defined for any non-empty sample.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sorted(samples)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// upperPercentile returns the nearest-rank p-th percentile (0 < p < 1) and
// refuses when fewer than minBeyond samples lie above it.
func upperPercentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < minBeyond {
		return math.NaN(), errTooFewSamples
	}
	return sorted(samples)[rank-1], nil
}

// quartiles returns the first quartile, median and third quartile with the
// "exclusive" rule Python's statistics.quantiles(values, n=4) uses, so the
// spreads printed here are the ones the acceptance rule computes.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := sorted(samples)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a snapshot of the process-wide resource counters the
// per-exchange cost metrics are differences of.
type usage struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
	maxRSSKiB  int64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: m.TotalAlloc,
		maxRSSKiB:  int64(ru.Maxrss),
	}
}

// liveHeapMiB forces a collection and returns what survived it.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// sleepUntil blocks until the instant given. The open loops use nanosleep
// rather than time.Sleep because the Go timer wakes an idle process through
// epoll at millisecond granularity: up to 1.1 ms late, which a latency
// counted from the due time would report as the fleet's.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// An early return (EINTR) is handled by the loop.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// referenceCalibMs is the calibration time of the host the baseline was
// taken on; cpu_ms_per_exchange is scaled to it.
const referenceCalibMs = 24.0

// calibrate times a fixed loop of the two primitives the fleet spends most
// of its CPU in (SHA-256 and ed25519), so a run can tell a slow host from a
// slow program: the loop does not depend on the repository's code. The
// fastest of eight passes is reported, which a preemption cannot inflate.
func calibrate() time.Duration {
	seed := make([]byte, ed25519.SeedSize)
	key := ed25519.NewKeyFromSeed(seed)
	pub := key.Public().(ed25519.PublicKey)
	buf := make([]byte, 1024)
	best := time.Duration(math.MaxInt64)
	for pass := 0; pass < 8; pass++ {
		start := time.Now()
		for i := 0; i < 200; i++ {
			for j := 0; j < 50; j++ {
				sum := sha256.Sum256(buf)
				copy(buf, sum[:])
			}
			sig := ed25519.Sign(key, buf)
			if !ed25519.Verify(pub, buf, sig) {
				panic("benchmark: calibration signature did not verify")
			}
		}
		best = min(best, time.Since(start))
	}
	return best
}
