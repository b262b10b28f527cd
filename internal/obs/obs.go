// Package obs is the operations surface of a DRAMS deployment: it turns
// the in-process instrumentation (metrics.Registry plus the Stats()
// snapshots scattered across node, verifier, caches, transport, Logging
// Interface, watcher, monitor and analyser) into a single gatherable
// sample set, renders it in Prometheus text exposition format, serves
// /metrics, /healthz and /readyz over HTTP, and reconstructs per-request
// span timelines from the trace IDs that ride along with every decision.
//
// The package is dependency-free by design (stdlib + internal/metrics
// only): component packages import obs to record trace spans, and the
// wiring layer (drams.Open/OpenMember) registers closures over each
// component's Stats() accessor as collectors — obs never imports the
// components, so there are no import cycles and no locks shared with the
// hot path. A scrape snapshots everything first (Gather) and only then
// writes to the client, so a stalled scraper holds no lock any decide,
// mine or flush could contend on.
package obs

import (
	"sync"

	"drams/internal/metrics"
)

// Collector produces a batch of samples at gather time — typically a
// closure over some component's Stats() accessor, converting its counters
// into named samples.
type Collector func() []metrics.Sample

// Gatherer merges a registry's native metrics with registered collectors
// into one deterministic sample set.
type Gatherer struct {
	mu   sync.Mutex
	reg  *metrics.Registry
	cols []Collector
}

// NewGatherer wraps a registry (nil is allowed: collectors only).
func NewGatherer(reg *metrics.Registry) *Gatherer {
	return &Gatherer{reg: reg}
}

// Registry returns the wrapped registry (nil if none).
func (g *Gatherer) Registry() *metrics.Registry {
	if g == nil {
		return nil
	}
	return g.reg
}

// Register adds a collector. Safe for concurrent use with Gather.
func (g *Gatherer) Register(c Collector) {
	if g == nil || c == nil {
		return
	}
	g.mu.Lock()
	g.cols = append(g.cols, c)
	g.mu.Unlock()
}

// Gather snapshots the registry and every collector, returning samples
// sorted by family then series name. The returned slice is a snapshot:
// rendering it later touches no component state.
func (g *Gatherer) Gather() []metrics.Sample {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	cols := make([]Collector, len(g.cols))
	copy(cols, g.cols)
	g.mu.Unlock()

	var out []metrics.Sample
	if g.reg != nil {
		out = g.reg.Samples()
	}
	for _, c := range cols {
		out = append(out, c()...)
	}
	metrics.SortSamples(out)
	return out
}

// C builds a counter sample (family name must end in _total).
func C(name, help string, v int64) metrics.Sample {
	return metrics.Sample{Name: name, Kind: metrics.KindCounter, Help: help, Value: v}
}

// G builds a gauge sample.
func G(name, help string, v int64) metrics.Sample {
	return metrics.Sample{Name: name, Kind: metrics.KindGauge, Help: help, Value: v}
}

// H builds a histogram sample from an export snapshot.
func H(name, help string, ex metrics.HistExport) metrics.Sample {
	return metrics.Sample{Name: name, Kind: metrics.KindHistogram, Help: help, Hist: &ex}
}
