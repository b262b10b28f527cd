package drams_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drams"
	"drams/internal/obs"
	"drams/internal/trace"
)

// TestTraceTimelineEndToEnd drives one clean decision through the full
// pipeline and reconstructs its timeline: the trace must cover at least
// five distinct stages (PEP decide, PDP evaluation, LI flush wait, chain
// anchoring, monitor match — analyser verification typically joins them),
// be sorted by start time, and land per-stage histograms in /metrics.
func TestTraceTimelineEndToEnd(t *testing.T) {
	dep := testDeployment(t)
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctx20(t)
	req := doctorRequest(dep)
	if _, err := client.Decide(ctx, req); err != nil {
		t.Fatal(err)
	}
	if err := dep.WaitForMatched(ctx, req.ID); err != nil {
		t.Fatal(err)
	}

	// The monitor.match span lands when the EventMatched notification is
	// consumed; WaitForMatched returns on the same notification, so give
	// the recording a moment.
	var spans []drams.TraceSpan
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans = dep.Trace(req.ID)
		if len(spans) >= 5 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(spans) < 5 {
		t.Fatalf("trace has %d spans, want >= 5: %+v", len(spans), spans)
	}
	stages := make(map[string]bool)
	for i, sp := range spans {
		stages[sp.Stage] = true
		if i > 0 && sp.Start.Before(spans[i-1].Start) {
			t.Fatalf("timeline not start-sorted at %d: %+v", i, spans)
		}
	}
	for _, want := range []string{
		trace.StagePEPDecide, trace.StagePDPEval, trace.StageLIFlushWait,
		trace.StageChainAnchor, trace.StageMonitorMatch,
	} {
		if !stages[want] {
			t.Errorf("trace missing stage %s (have %v)", want, stages)
		}
	}

	// Per-stage histograms are part of the exposition.
	srv := httptest.NewServer(dep.MetricsHandler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		`drams_trace_stage_ms_bucket{stage="pep.decide",le="+Inf"}`,
		`drams_trace_stage_ms_bucket{stage="pdp.eval",le="+Inf"}`,
		`drams_trace_stage_ms_count{stage="chain.anchor"}`,
		"# TYPE drams_trace_stage_ms histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsExpositionLint gathers the full exposition of a live
// deployment and holds it to promtool-style rules: every family named
// validly, help text present, counters (and only counters) suffixed
// _total — and the node, transport, PDP, monitor and analyser planes all
// contributing series.
func TestMetricsExpositionLint(t *testing.T) {
	dep := testDeployment(t)
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Decide(ctx20(t), doctorRequest(dep)); err != nil {
		t.Fatal(err)
	}

	samples := dep.Gatherer().Gather()
	if errs := obs.Lint(samples); errs != nil {
		t.Fatalf("exposition lint: %v", errs)
	}
	srv := httptest.NewServer(dep.MetricsHandler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	for _, fam := range []string{
		"drams_node_blocks_accepted_total",
		"drams_node_mempool_len",
		"drams_node_tx_expired_total",
		"drams_node_reorgs_total",
		"drams_node_reorgs_refused_total",
		"drams_transport_sent_total",
		"drams_pdp_evaluations_total",
		"drams_pep_requests_total",
		"drams_li_submitted_total",
		"drams_agent_observed_total",
		"drams_watcher_activations_total",
		"drams_monitor_logs_seen_total",
		"drams_monitor_alerts_total",
		"drams_monitor_detection_latency_ms",
		"drams_analyser_verdicts_total",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	// Health endpoints ride the same handler; a settled deployment is
	// caught up and policy-fresh, hence ready.
	if code, _ := httpStatus(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}
	if code, body := httpStatus(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d: %s", code, body)
	}
}

// blockedWriter wedges the first /metrics response mid-write, emulating a
// scraper that connected and then stopped reading.
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

// TestStalledScraperDoesNotBlockDecides proves the snapshot-then-serve
// design end-to-end: with a scrape wedged mid-write, the PEP→PDP decide
// path keeps completing (the stalled writer holds no lock any component or
// collector needs), and a concurrent scrape still succeeds. The strict
// throughput bound (<1%) follows from lock-freedom, pinned at the obs
// layer by TestStalledScraperHoldsNoLocks; here we assert the user-visible
// property under -race: decides proceed while the scraper is stalled.
func TestStalledScraperDoesNotBlockDecides(t *testing.T) {
	dep := testDeployment(t)
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctx20(t)
	// Warm the path before stalling the scraper.
	if _, err := client.Decide(ctx, doctorRequest(dep)); err != nil {
		t.Fatal(err)
	}

	handler := dep.MetricsHandler()
	bw := &blockedWriter{release: make(chan struct{}), header: make(http.Header)}
	scrapeDone := make(chan struct{})
	go func() {
		handler.ServeHTTP(bw, httptest.NewRequest("GET", "/metrics", nil))
		close(scrapeDone)
	}()
	// Let the scrape reach its blocked Write (it snapshots first).
	time.Sleep(50 * time.Millisecond)

	const decides = 32
	var wg sync.WaitGroup
	errs := make(chan error, decides)
	for i := 0; i < decides; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Decide(ctx, doctorRequest(dep)); err != nil {
				errs <- err
			}
		}()
	}
	decidesDone := make(chan struct{})
	go func() { wg.Wait(); close(decidesDone) }()
	select {
	case <-decidesDone:
	case <-time.After(15 * time.Second):
		t.Fatal("decides blocked behind a stalled scraper")
	}
	close(errs)
	for err := range errs {
		t.Errorf("decide under stalled scrape: %v", err)
	}
	// A fresh scrape must also complete while the first is still wedged.
	if got := dep.Gatherer().Gather(); len(got) == 0 {
		t.Fatal("concurrent gather returned nothing")
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

func httpGet(t *testing.T, url string) string {
	t.Helper()
	_, body := httpStatus(t, url)
	return body
}

func httpStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}
