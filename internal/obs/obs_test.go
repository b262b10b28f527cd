package obs

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drams/internal/metrics"
	"drams/internal/trace"
)

func TestWriteExpositionGolden(t *testing.T) {
	g := NewGatherer(nil)
	g.Register(func() []metrics.Sample {
		return []metrics.Sample{
			G("drams_node_mempool_len", "Pending transactions in the mempool.", 3),
			C("drams_node_blocks_accepted_total", "Blocks accepted onto the best chain.", 7),
		}
	})
	g.Register(func() []metrics.Sample {
		return []metrics.Sample{
			C(`drams_monitor_alerts_total{type="M3"}`, "Alerts observed, by M-check type.", 5),
			C(`drams_monitor_alerts_total{type="M1"}`, "Alerts observed, by M-check type.", 2),
		}
	})

	var sb strings.Builder
	if err := WriteExposition(&sb, g.Gather()); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP drams_monitor_alerts_total Alerts observed, by M-check type.`,
		`# TYPE drams_monitor_alerts_total counter`,
		`drams_monitor_alerts_total{type="M1"} 2`,
		`drams_monitor_alerts_total{type="M3"} 5`,
		`# HELP drams_node_blocks_accepted_total Blocks accepted onto the best chain.`,
		`# TYPE drams_node_blocks_accepted_total counter`,
		`drams_node_blocks_accepted_total 7`,
		`# HELP drams_node_mempool_len Pending transactions in the mempool.`,
		`# TYPE drams_node_mempool_len gauge`,
		`drams_node_mempool_len 3`,
		``,
	}, "\n")
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteExpositionHistogram(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Help("drams_trace_stage_ms", "Span durations.")
	h := reg.Histogram(`drams_trace_stage_ms{stage="pep.decide"}`)
	for _, v := range []float64{0.5, 0.9, 1.5, 3.0} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := WriteExposition(&sb, NewGatherer(reg).Gather()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE drams_trace_stage_ms histogram",
		`drams_trace_stage_ms_bucket{stage="pep.decide",le="1"} 2`,
		`drams_trace_stage_ms_bucket{stage="pep.decide",le="2"} 3`,
		`drams_trace_stage_ms_bucket{stage="pep.decide",le="4"} 4`,
		`drams_trace_stage_ms_bucket{stage="pep.decide",le="+Inf"} 4`,
		`drams_trace_stage_ms_sum{stage="pep.decide"} 5.9`,
		`drams_trace_stage_ms_count{stage="pep.decide"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLint(t *testing.T) {
	clean := []metrics.Sample{
		C("drams_x_total", "help", 1),
		G("drams_y", "help", 1),
		H(`drams_z_ms{stage="a"}`, "help", metrics.HistExport{}),
	}
	if errs := Lint(clean); errs != nil {
		t.Fatalf("clean set flagged: %v", errs)
	}
	bad := []metrics.Sample{
		C("drams_counter", "help", 1),             // counter without _total
		G("drams_gauge_total", "help", 1),         // gauge with _total
		C("drams_nohelp_total", "", 1),            // missing help
		C("1bad_total", "help", 1),                // invalid name
		C(`drams_l_total{bad-label="x"}`, "h", 1), // invalid label name
		{Name: "drams_dual", Kind: metrics.KindGauge, Help: "h"},
	}
	errs := Lint(append(bad, metrics.Sample{Name: "drams_dual", Kind: metrics.KindHistogram, Help: "h"}))
	if len(errs) < 6 {
		t.Fatalf("want >= 6 lint errors, got %d: %v", len(errs), errs)
	}
}

func TestHealthReady(t *testing.T) {
	h := NewHealth()
	ok, fails := h.Ready()
	if !ok || fails != nil {
		t.Fatalf("empty health not ready: %v", fails)
	}
	syncing := true
	h.AddReady("chain", func() error {
		if syncing {
			return errors.New("syncing: height 3 < best seen 10")
		}
		return nil
	})
	h.AddReady("watcher", func() error { return nil })
	if ok, fails = h.Ready(); ok || len(fails) != 1 || !strings.Contains(fails[0], "chain: syncing") {
		t.Fatalf("ready=%v fails=%v", ok, fails)
	}
	syncing = false
	if ok, _ = h.Ready(); !ok {
		t.Fatal("still not ready after check cleared")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	g := NewGatherer(nil)
	g.Register(func() []metrics.Sample { return []metrics.Sample{C("drams_up_total", "Test counter.", 1)} })
	health := NewHealth()
	ready := false
	health.AddReady("chain", func() error {
		if !ready {
			return errors.New("catching up")
		}
		return nil
	})
	srv := httptest.NewServer(Handler(g, health))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "drams_up_total 1") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "chain: catching up") {
		t.Fatalf("/readyz while syncing: %d %q", code, body)
	}
	ready = true
	if code, body := get("/readyz"); code != 200 || body != "ok\n" {
		t.Fatalf("/readyz after catch-up: %d %q", code, body)
	}
}

func TestTracerTimeline(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := trace.New(reg, 2)
	base := time.Unix(1000, 0)
	tr.Span("req-1", trace.StagePEPDecide, base, 2*time.Millisecond)
	tr.Span("req-1", trace.StageChainAnchor, base.Add(5*time.Millisecond), 40*time.Millisecond)
	tr.Span("req-1", trace.StagePDPEval, base.Add(time.Millisecond), 500*time.Microsecond)

	spans := tr.Trace("req-1")
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	order := []string{trace.StagePEPDecide, trace.StagePDPEval, trace.StageChainAnchor}
	for i, want := range order {
		if spans[i].Stage != want {
			t.Fatalf("span %d = %s, want %s (timeline not start-sorted)", i, spans[i].Stage, want)
		}
	}
	// Per-stage histograms land in the registry under the stage label.
	if reg.Histogram(`drams_trace_stage_ms{stage="pep.decide"}`).Snapshot().Count != 1 {
		t.Fatal("stage histogram not recorded")
	}
	// Later spans of a stage land in the same registry series.
	tr.Span("req-2", trace.StagePEPDecide, base, time.Millisecond)
	tr.Span("req-3", trace.StagePEPDecide, base, time.Millisecond)
	if n := reg.Histogram(`drams_trace_stage_ms{stage="pep.decide"}`).Snapshot().Count; n != 3 {
		t.Fatalf("pep.decide series counted %d spans, want 3", n)
	}
	if tr.Trace("req-1") == nil || tr.Trace("req-3") == nil {
		t.Fatal("a trace within capacity is missing")
	}

	// The ring holds capacity × 7 spans and overwrites the oldest span of
	// its shard. At capacity 1 it is one shard of seven: req-2's spans push
	// out req-1's one at a time, in the order they were recorded.
	small := trace.New(nil, 1)
	small.Span("req-1", trace.StagePEPDecide, base, 2*time.Millisecond)
	small.Span("req-1", trace.StageChainAnchor, base.Add(5*time.Millisecond), 40*time.Millisecond)
	small.Span("req-1", trace.StagePDPEval, base.Add(time.Millisecond), 500*time.Microsecond)
	for i := 0; i < 5; i++ {
		small.Span("req-2", trace.StageLIFlushWait, base, time.Millisecond)
	}
	spans = small.Trace("req-1")
	if len(spans) != 2 || spans[0].Stage != trace.StagePDPEval || spans[1].Stage != trace.StageChainAnchor {
		t.Fatalf("after one overwrite req-1 = %v, want its pdp.eval and chain.anchor spans", spans)
	}
	small.Span("req-2", trace.StageLIFlushWait, base, time.Millisecond)
	small.Span("req-2", trace.StageLIFlushWait, base, time.Millisecond)
	if spans := small.Trace("req-1"); spans != nil {
		t.Fatalf("req-1 not overwritten: %v", spans)
	}
	if n := len(small.Trace("req-2")); n != 7 {
		t.Fatalf("req-2 has %d spans, want the ring's 7", n)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *trace.Tracer
	tr.Span("x", trace.StagePEPDecide, time.Now(), time.Millisecond) // must not panic
	if tr.Trace("x") != nil {
		t.Fatal("nil tracer returned spans")
	}
}

// blockedWriter blocks every Write until released, emulating a stalled
// scraper that accepted the TCP connection but never reads.
type blockedWriter struct {
	release chan struct{}
	header  http.Header
}

func (b *blockedWriter) Header() http.Header { return b.header }
func (b *blockedWriter) WriteHeader(int)     {}
func (b *blockedWriter) Write(p []byte) (int, error) {
	<-b.release
	return len(p), nil
}

// TestStalledScraperHoldsNoLocks proves snapshot-then-serve: once /metrics
// has gathered its snapshot, a scraper stalled mid-write holds no lock any
// instrumentation call could contend on — counters, histograms and further
// Gather calls all proceed while the first scrape is still blocked.
func TestStalledScraperHoldsNoLocks(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Help("drams_decide_ms", "Decide latency.")
	var c metrics.Counter
	h := reg.Histogram("drams_decide_ms")
	g := NewGatherer(reg)
	var statsMu sync.Mutex // stands in for a component's Stats() lock
	g.Register(func() []metrics.Sample {
		statsMu.Lock()
		defer statsMu.Unlock()
		return []metrics.Sample{
			C("drams_decides_total", "Decides executed.", c.Value()),
			G("drams_component_gauge", "Component state.", 1),
		}
	})
	handler := Handler(g, NewHealth())

	bw := &blockedWriter{release: make(chan struct{}), header: make(http.Header)}
	scrapeDone := make(chan struct{})
	go func() {
		req := httptest.NewRequest("GET", "/metrics", nil)
		handler.ServeHTTP(bw, req)
		close(scrapeDone)
	}()

	// The "hot path": instrumentation plus the component lock the
	// collector samples. All of it must complete while the scrape is
	// still wedged in Write.
	hot := make(chan struct{})
	go func() {
		for i := 0; i < 100000; i++ {
			c.Inc()
			h.Observe(float64(i % 7))
			statsMu.Lock()
			statsMu.Unlock() //nolint:staticcheck // contention probe
		}
		// A concurrent scrape must also complete: Gather shares no state
		// with the stalled writer.
		_ = g.Gather()
		close(hot)
	}()

	select {
	case <-hot:
	case <-time.After(10 * time.Second):
		t.Fatal("hot path blocked behind a stalled scraper")
	}
	select {
	case <-scrapeDone:
		t.Fatal("scrape finished early; writer was supposed to be stalled")
	default:
	}
	close(bw.release)
	select {
	case <-scrapeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("scrape did not finish after release")
	}
}
