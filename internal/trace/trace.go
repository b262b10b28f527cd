// Package trace is the dependency-free span recorder for the end-to-end
// decision pipeline. It lives below the component layer on purpose:
// components (PEP/PDP services, the LI, the analyser, the monitor) record
// spans through it without importing internal/obs, keeping the PR 9
// layering contract — obs builds the operator surface (exposition, trace
// timelines over HTTP) on top, and nothing in the hot path shares an
// import or a lock with the scrape path. The wiring layer builds the
// deployment's Tracer from this package directly.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"drams/internal/metrics"
)

// Canonical stage names for the end-to-end decision pipeline, in causal
// order. Components record spans under these; ad-hoc stages are allowed
// but these are what dashboards and Deployment.Trace document.
const (
	StagePEPDecide      = "pep.decide"      // PEP-observed round trip to the PDP
	StagePDPEval        = "pdp.eval"        // PDP-side policy evaluation
	StageLIFlushWait    = "li.flush_wait"   // probe record queued at the LI → batch tx submitted
	StageChainAnchor    = "chain.anchor"    // request tracked → its log record anchored in a block
	StageAnalyserVerify = "analyser.verify" // analyser re-derivation of one log record
	StageMonitorMatch   = "monitor.match"   // request tracked → M-check match observed off-chain
	StageMonitorAlert   = "monitor.alert"   // request tracked → alert observed off-chain
)

// stageFamily is the histogram family every span duration lands in, one
// series per stage label.
const stageFamily = "drams_trace_stage_ms"

// Span is one recorded stage of a request's end-to-end timeline.
type Span struct {
	TraceID  string
	Stage    string
	Start    time.Time
	Duration time.Duration
}

// String renders the span for timeline dumps.
func (s Span) String() string {
	return fmt.Sprintf("%-16s +%8.3fms  %.3fms", s.Stage,
		float64(s.Start.UnixNano()%1e12)/1e6, float64(s.Duration)/float64(time.Millisecond))
}

// Tracer records per-request stage spans: each span lands in a bounded
// per-trace timeline (FIFO-evicted once capacity distinct trace IDs are
// held) and in a per-stage duration histogram on the registry, so /metrics
// answers "where does the time go" in aggregate while Trace answers it for
// one request. All methods are safe on a nil receiver — a nil *Tracer is
// the disabled tracer, costing one branch per call site.
type Tracer struct {
	reg *metrics.Registry
	cap int

	mu     sync.Mutex
	spans  map[string][]Span
	order  []string                      // insertion order of trace IDs, for FIFO eviction
	stages map[string]*metrics.Histogram // each stage's series, resolved once
}

// DefaultCapacity bounds how many distinct in-flight/recent trace
// timelines a Tracer retains.
const DefaultCapacity = 4096

// New builds a tracer recording stage histograms into reg (which may be
// nil: timelines only). capacity <= 0 uses DefaultCapacity.
func New(reg *metrics.Registry, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if reg != nil {
		reg.Help(stageFamily, "Per-stage span durations of the decision pipeline, labelled by stage.")
	}
	return &Tracer{reg: reg, cap: capacity, spans: make(map[string][]Span), stages: make(map[string]*metrics.Histogram)}
}

// Span records one stage of a trace. No-op on a nil tracer or empty
// traceID, so call sites need no enablement checks.
func (t *Tracer) Span(traceID, stage string, start time.Time, d time.Duration) {
	if t == nil || traceID == "" {
		return
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	h, ok := t.stages[stage]
	if !ok && t.reg != nil {
		h = t.reg.Histogram(fmt.Sprintf(`%s{stage=%q}`, stageFamily, stage))
		t.stages[stage] = h
	}
	if _, ok := t.spans[traceID]; !ok {
		if len(t.order) >= t.cap {
			evict := t.order[0]
			t.order = t.order[1:]
			delete(t.spans, evict)
		}
		t.order = append(t.order, traceID)
	}
	t.spans[traceID] = append(t.spans[traceID], Span{TraceID: traceID, Stage: stage, Start: start, Duration: d})
	t.mu.Unlock()
	if h != nil {
		h.ObserveDuration(d)
	}
}

// Trace returns the recorded timeline for one trace ID, sorted by span
// start time. Nil when unknown (or the tracer is nil / the trace was
// evicted).
func (t *Tracer) Trace(traceID string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := t.spans[traceID]
	out := make([]Span, len(spans))
	copy(out, spans)
	t.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
