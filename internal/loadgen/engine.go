package loadgen

import (
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/metrics"
)

// Window is one time-series sample of the run: the delta of every counter
// and the latency distribution observed since the previous window.
type Window struct {
	// Offset is the window end, as an offset from run start.
	Offset Duration `json:"offset"`
	// Started counts iterations scheduled in the window (fired + dropped).
	Started int64 `json:"started"`
	// Requests counts decisions completed successfully.
	Requests int64 `json:"requests"`
	// Errors counts decisions that returned an error (timeouts included).
	Errors int64 `json:"errors"`
	// Dropped counts open-loop iterations shed at arrival because every
	// worker was busy.
	Dropped int64 `json:"dropped"`
	// P50/P99/Max summarise the window's decision latency in ms.
	P50 float64 `json:"p50_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// windowState is the engine's live per-window accumulator, swapped out
// atomically on every tick.
type windowState struct {
	hist     *metrics.Histogram
	started  metrics.Counter
	errors   metrics.Counter
	dropped  metrics.Counter
	requests metrics.Counter
}

func newWindowState() *windowState {
	return &windowState{hist: metrics.NewHistogram()}
}

// engine aggregates the run's measurements: cumulative HDR histograms plus
// counters, and a ticker-sampled time series of Windows. All record paths
// are safe for concurrent use by executor workers.
type engine struct {
	latency  *metrics.Histogram // decision latency, ms (cumulative)
	alertLat *metrics.Histogram // alert-detection latency, ms (cumulative)

	started  metrics.Counter
	requests metrics.Counter
	errors   metrics.Counter
	dropped  metrics.Counter

	window atomic.Pointer[windowState]

	mu      sync.Mutex
	windows []Window

	start time.Time

	// inflight tracks submit times of alert-sampled requests by reqID.
	inflight sync.Map // string -> time.Time
}

func newEngine(start time.Time) *engine {
	e := &engine{
		latency:  metrics.NewHistogram(),
		alertLat: metrics.NewHistogram(),
		start:    start,
	}
	e.window.Store(newWindowState())
	return e
}

// recordStarted counts one scheduled iteration.
func (e *engine) recordStarted() {
	e.started.Inc()
	e.window.Load().started.Inc()
}

// recordDropped counts one iteration shed at arrival (pool saturated).
func (e *engine) recordDropped() {
	e.dropped.Inc()
	e.window.Load().dropped.Inc()
}

// recordSuccess records one completed decision's latency.
func (e *engine) recordSuccess(latency time.Duration) {
	e.requests.Inc()
	e.latency.ObserveDuration(latency)
	w := e.window.Load()
	w.requests.Inc()
	w.hist.ObserveDuration(latency)
}

// recordError counts one failed decision.
func (e *engine) recordError() {
	e.errors.Inc()
	e.window.Load().errors.Inc()
}

// trackAlert registers a request for alert-detection measurement.
func (e *engine) trackAlert(reqID string, submitted time.Time) {
	e.inflight.Store(reqID, submitted)
}

// alertSeen resolves a tracked request against its AlertMatched event.
func (e *engine) alertSeen(reqID string, at time.Time) {
	v, ok := e.inflight.LoadAndDelete(reqID)
	if !ok {
		return
	}
	e.alertLat.ObserveDuration(at.Sub(v.(time.Time)))
}

// sample closes the current window into the time series.
func (e *engine) sample(now time.Time) {
	old := e.window.Swap(newWindowState())
	s := old.hist.Snapshot()
	w := Window{
		Offset:   Duration(now.Sub(e.start)),
		Started:  old.started.Value(),
		Requests: old.requests.Value(),
		Errors:   old.errors.Value(),
		Dropped:  old.dropped.Value(),
		P50:      s.P50,
		P99:      s.P99,
		Max:      s.Max,
	}
	e.mu.Lock()
	e.windows = append(e.windows, w)
	e.mu.Unlock()
}

// series returns the sampled windows.
func (e *engine) series() []Window {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Window(nil), e.windows...)
}

// metricValues builds the threshold-evaluation map from the run totals.
func (e *engine) metricValues(elapsed time.Duration) map[string]float64 {
	lat := e.latency.Snapshot()
	started := e.started.Value()
	dropped := e.dropped.Value()
	attempts := started - dropped
	errs := e.errors.Value()

	m := map[string]float64{
		"p50": lat.P50, "p90": lat.P90, "p99": lat.P99, "p999": lat.P999,
		"mean": lat.Mean, "min": lat.Min, "max": lat.Max,
		"count": float64(e.requests.Value()),
	}
	if attempts > 0 {
		m["error_rate"] = float64(errs) / float64(attempts)
	} else {
		m["error_rate"] = 0
	}
	if started > 0 {
		m["dropped"] = float64(dropped) / float64(started)
	} else {
		m["dropped"] = 0
	}
	if elapsed > 0 {
		m["rate"] = float64(e.requests.Value()) / elapsed.Seconds()
	}
	if a := e.alertLat.Snapshot(); a.Count > 0 {
		m["alert_p50"], m["alert_p99"], m["alert_mean"] = a.P50, a.P99, a.Mean
	}
	return m
}
