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
	"hash/maphash"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	StageChainAnchor    = "chain.anchor"    // a record's own timestamp → the monitor sees it anchored in a block
	StageAnalyserVerify = "analyser.verify" // analyser re-derivation of one log record
	StageMonitorMatch   = "monitor.match"   // the exchange's earliest record timestamp → match observed off-chain
	StageMonitorAlert   = "monitor.alert"   // the exchange's earliest record timestamp → first alert observed off-chain
)

// canonicalStages are the stages New resolves up front; a trace of the
// whole pipeline holds one span of each, so the ring holds this many spans
// per trace it is sized for.
var canonicalStages = [...]string{
	StagePEPDecide, StagePDPEval, StageLIFlushWait, StageChainAnchor,
	StageAnalyserVerify, StageMonitorMatch, StageMonitorAlert,
}

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
// ring of recent spans and in a per-stage duration histogram on the
// registry, so /metrics answers "where does the time go" in aggregate
// while Trace answers it for one request. All methods are safe on a nil
// receiver — a nil *Tracer is the disabled tracer, costing one branch per
// call site.
//
// The ring is split into shards, and a hash of the trace ID picks one, so
// a trace's spans share a shard and two decisions rarely share a lock.
// Each shard is allocated once in New and holds pointer-free records
// (trace-ID hash, stage index, start, duration), so recording a span
// allocates nothing, and what the ring retains is fixed at New. A full
// shard overwrites its oldest span. Trace matches on the 64-bit hash: two
// trace IDs with the same hash would share a timeline.
type Tracer struct {
	seed   maphash.Seed
	reg    *metrics.Registry
	shards []shard

	// stages is the stage table a record's index points into: the
	// canonical stages first, then each ad-hoc stage in the order it was
	// first recorded. It is replaced, never modified; addMu orders the
	// replacements.
	stages atomic.Pointer[[]stage]
	addMu  sync.Mutex
}

// stage is one entry of the stage table: its name and its series (nil
// without a registry).
type stage struct {
	name string
	hist *metrics.Histogram
}

// record is one span in a shard's ring.
type record struct {
	id    uint64 // maphash of the trace ID
	start int64  // Unix nanoseconds
	dur   time.Duration
	stage uint32 // index into the stage table
}

// shard is one ring of records under its own lock. next is the slot the
// next span overwrites; until the ring has wrapped once (full), the slots
// from next on are unused.
type shard struct {
	mu   sync.Mutex
	ring []record
	next int
	full bool
	_    [64]byte // keeps neighbouring shards' locks off one cache line
}

// DefaultCapacity bounds how many complete trace timelines a Tracer
// retains.
const DefaultCapacity = 4096

// maxShards bounds the ring's shard count; a tracer of smaller capacity
// has one shard per trace it is sized for, so a shard always holds at
// least one whole trace.
const maxShards = 16

// New builds a tracer recording stage histograms into reg (which may be
// nil: timelines only). The ring holds capacity traces of every canonical
// stage: capacity × 7 spans. capacity <= 0 uses DefaultCapacity.
func New(reg *metrics.Registry, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if reg != nil {
		reg.Help(stageFamily, "Per-stage span durations of the decision pipeline, labelled by stage.")
	}
	t := &Tracer{seed: maphash.MakeSeed(), reg: reg, shards: make([]shard, min(capacity, maxShards))}
	perShard := (capacity*len(canonicalStages) + len(t.shards) - 1) / len(t.shards)
	for i := range t.shards {
		t.shards[i].ring = make([]record, perShard)
	}
	stages := make([]stage, len(canonicalStages))
	for i, name := range canonicalStages {
		stages[i] = t.newStage(name)
	}
	t.stages.Store(&stages)
	return t
}

// newStage resolves a stage name to its table entry.
func (t *Tracer) newStage(name string) stage {
	st := stage{name: name}
	if t.reg != nil {
		st.hist = t.reg.Histogram(fmt.Sprintf(`%s{stage=%q}`, stageFamily, name))
	}
	return st
}

// stageIndex returns the stage table's entry for name, adding it when it
// is ad hoc and new.
func (t *Tracer) stageIndex(name string) (uint32, stage) {
	named := func(st stage) bool { return st.name == name }
	stages := *t.stages.Load()
	if i := slices.IndexFunc(stages, named); i >= 0 {
		return uint32(i), stages[i]
	}
	t.addMu.Lock()
	defer t.addMu.Unlock()
	stages = *t.stages.Load()
	if i := slices.IndexFunc(stages, named); i >= 0 {
		return uint32(i), stages[i]
	}
	st := t.newStage(name)
	grown := append(stages[:len(stages):len(stages)], st)
	t.stages.Store(&grown)
	return uint32(len(grown) - 1), st
}

// shardOf returns the shard holding id's spans.
func (t *Tracer) shardOf(id uint64) *shard {
	return &t.shards[id%uint64(len(t.shards))]
}

// Span records one stage of a trace. No-op on a nil tracer or empty
// traceID, so call sites need no enablement checks.
func (t *Tracer) Span(traceID, stageName string, start time.Time, d time.Duration) {
	if t == nil || traceID == "" {
		return
	}
	if d < 0 {
		d = 0
	}
	idx, st := t.stageIndex(stageName)
	rec := record{id: maphash.String(t.seed, traceID), start: start.UnixNano(), dur: d, stage: idx}
	s := t.shardOf(rec.id)
	s.mu.Lock()
	s.ring[s.next] = rec
	if s.next++; s.next == len(s.ring) {
		s.next, s.full = 0, true
	}
	s.mu.Unlock()
	if st.hist != nil {
		st.hist.ObserveDuration(d)
	}
}

// Trace returns the recorded timeline for one trace ID, sorted by span
// start time. Nil when unknown (or the tracer is nil / every span of the
// trace was overwritten).
func (t *Tracer) Trace(traceID string) []Span {
	if t == nil {
		return nil
	}
	id := maphash.String(t.seed, traceID)
	var out []Span
	s := t.shardOf(id)
	s.mu.Lock()
	// Loaded under the shard's lock: every record in the shard was written
	// after its stage entered the table.
	stages := *t.stages.Load()
	// Oldest first, so spans with equal starts keep the order they were
	// recorded in.
	older, newer := s.ring[s.next:], s.ring[:s.next]
	if !s.full {
		older = nil
	}
	for _, part := range [2][]record{older, newer} {
		for _, rec := range part {
			if rec.id == id {
				out = append(out, Span{TraceID: traceID, Stage: stages[rec.stage].name,
					Start: time.Unix(0, rec.start), Duration: rec.dur})
			}
		}
	}
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
