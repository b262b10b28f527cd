package trace

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"drams/internal/metrics"
)

// Recording a span allocates nothing: the stage resolves to an index, the
// trace ID to a hash, and the record goes into a slot New allocated.
func TestSpanAllocBudget(t *testing.T) {
	tr := New(metrics.NewRegistry(), 64)
	start := time.Unix(1000, 0)
	span := func() {
		tr.Span("req-1", StagePEPDecide, start, time.Millisecond)
		tr.Span("req-1", StagePDPEval, start, 300*time.Microsecond)
		tr.Span("req-2", "adhoc.stage", start, time.Millisecond)
	}
	span() // the ad-hoc stage's first span adds it, and each series' first sample its bucket
	if n := testing.AllocsPerRun(1000, span); n != 0 {
		t.Errorf("Span allocates %.2f per 3 spans, want 0", n)
	}
}

// liveHeap returns the bytes the heap holds after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// What the ring retains is fixed in New: 100 000 spans over as many trace
// IDs, far past its capacity, leave the live heap where New left it.
func TestRingRetainedBytesFixed(t *testing.T) {
	// The slack covers the stage histograms' buckets (a few durations) and
	// the runtime's own noise; a tracer that kept one string per trace ID
	// would pass it at well under a thousand IDs.
	const slack = 64 << 10
	reg := metrics.NewRegistry()
	before := liveHeap()
	tr := New(reg, DefaultCapacity)
	afterNew := liveHeap()
	start := time.Unix(1000, 0)
	for i := 0; i < 100_000; i++ {
		tr.Span("req-"+strconv.Itoa(i), canonicalStages[i%len(canonicalStages)], start, time.Duration(i%8)*time.Millisecond)
	}
	afterSpans := liveHeap()
	if tr.Trace("req-99999") == nil {
		t.Fatal("the newest trace is missing")
	}
	t.Logf("New retains %d KiB; 100 000 spans add %d B", (afterNew-before)>>10, int64(afterSpans)-int64(afterNew))
	if afterSpans > afterNew+slack {
		t.Errorf("live heap grew %d B over 100 000 spans, slack %d B", afterSpans-afterNew, slack)
	}
	runtime.KeepAlive(tr)
}

// Concurrent spans and timeline reads: every span lands once, a timeline
// holds only its own trace's spans, and ad-hoc stages added from several
// goroutines at once each get one entry. Run under -race.
func TestTracerConcurrentSpanAndTrace(t *testing.T) {
	const workers, traces = 8, 150
	reg := metrics.NewRegistry()
	tr := New(reg, DefaultCapacity)
	start := time.Unix(1000, 0)
	id := func(w, i int) string { return fmt.Sprintf("w%d-r%d", w, i) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			adhoc := fmt.Sprintf("adhoc.%d", w%2)
			for i := 0; i < traces; i++ {
				tr.Span(id(w, i), StagePEPDecide, start.Add(2*time.Millisecond), time.Millisecond)
				tr.Span(id(w, i), StagePDPEval, start.Add(time.Millisecond), time.Millisecond)
				tr.Span(id(w, i), adhoc, start, time.Millisecond)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < traces; i++ {
				for _, sp := range tr.Trace(id((w+1)%workers, i)) {
					if sp.TraceID != id((w+1)%workers, i) || sp.Stage == "" {
						t.Errorf("timeline of %s holds %+v", id((w+1)%workers, i), sp)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := 0; i < traces; i++ {
			spans := tr.Trace(id(w, i))
			if len(spans) != 3 || spans[0].Stage != fmt.Sprintf("adhoc.%d", w%2) ||
				spans[1].Stage != StagePDPEval || spans[2].Stage != StagePEPDecide {
				t.Fatalf("timeline of %s = %v, want adhoc, pdp.eval, pep.decide", id(w, i), spans)
			}
		}
	}
	if n := len(*tr.stages.Load()); n != len(canonicalStages)+2 {
		t.Errorf("stage table has %d entries, want the %d canonical and 2 ad hoc", n, len(canonicalStages))
	}
	for _, stage := range []string{StagePEPDecide, "adhoc.0", "adhoc.1"} {
		want := int64(workers * traces)
		if stage != StagePEPDecide {
			want /= 2
		}
		if n := reg.Histogram(fmt.Sprintf(`drams_trace_stage_ms{stage=%q}`, stage)).Snapshot().Count; n != want {
			t.Errorf("%s series counted %d spans, want %d", stage, n, want)
		}
	}
}
