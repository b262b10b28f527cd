package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval recorded by the benchmark around a call into the
// system. Parent is the index of the causing span (-1 for a root); spans of
// one exchange share its request ID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ReqID  string `json:"req_id,omitempty"`
}

// recorder keeps spans in memory until the workload ends. A nil recorder is
// the untraced run: every method is a no-op, so call sites need no checks
// and end-to-end numbers never pay for tracing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span at the given instant and returns its index.
func (r *recorder) begin(name string, parent int, reqID string, at time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: int64(at.Sub(r.epoch)), End: -1, Parent: parent, ReqID: reqID})
	return len(r.spans) - 1
}

// end closes a span.
func (r *recorder) end(id int, at time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = int64(at.Sub(r.epoch))
}

// setParent attaches a span recorded live to a parent that is only known
// once the exchange has settled.
func (r *recorder) setParent(id, parent int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].Parent = parent
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover (overlapping children are not counted twice).
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		ivs := kids[i]
		// Children are few per span; insertion sort by start.
		for a := 1; a < len(ivs); a++ {
			for b := a; b > 0 && ivs[b].a < ivs[b-1].a; b-- {
				ivs[b], ivs[b-1] = ivs[b-1], ivs[b]
			}
		}
		cursor := s.Start
		for _, k := range ivs {
			a, b := max(k.a, cursor), min(k.b, s.End)
			if b > a {
				covered += b - a
				cursor = b
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfMsByName sums self time per span name: where the wall time of
	// the exchanges went, as seen from outside the program.
	SelfMsByName map[string]float64 `json:"self_ms_by_name"`
	CountByName  map[string]int     `json:"count_by_name"`
	Spans        []span             `json:"spans"`
}

func (r *recorder) write(dir, workload string, seed int64) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, Spans: spans,
		SelfMsByName: map[string]float64{}, CountByName: map[string]int{}}
	for i, self := range selfTimes(spans) {
		tf.SelfMsByName[spans[i].Name] += float64(self) / 1e6
		tf.CountByName[spans[i].Name]++
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
