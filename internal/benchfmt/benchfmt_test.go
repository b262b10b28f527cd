package benchfmt

import (
	"strings"
	"testing"
	"time"

	"drams/internal/metrics"
)

func TestReportRoundTrip(t *testing.T) {
	h := metrics.NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 10)
	}
	r := New("loadgen_unit test/demo", "loadgen")
	r.ElapsedMS = 1234.5
	r.Pass = false
	r.Config = map[string]any{"rate": 150}
	r.Metrics = map[string]Metric{"latency_ms": FromSummary(h.Snapshot(), "ms")}
	r.Thresholds = []ThresholdVerdict{
		{Expr: "p99<5ms", Metric: "p99", Actual: 99.0, Pass: false},
	}

	if got := r.Filename(); got != "BENCH_loadgen_unit_test_demo.json" {
		t.Fatalf("Filename() = %q: unsafe characters must be sanitized", got)
	}
	dir := t.TempDir()
	path, err := r.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Name != r.Name || got.Kind != "loadgen" || got.Pass {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	m := got.Metrics["latency_ms"]
	if m.Count != 1000 || m.Unit != "ms" || m.P99 < m.P50 || m.P50 <= 0 {
		t.Fatalf("metric mangled: %+v", m)
	}
	if len(got.Thresholds) != 1 || got.Thresholds[0].Pass || got.Thresholds[0].Expr != "p99<5ms" {
		t.Fatalf("thresholds mangled: %+v", got.Thresholds)
	}
	if got.GoVersion == "" || got.CPUs <= 0 || got.StartedAt.IsZero() ||
		time.Since(got.StartedAt) > time.Hour {
		t.Fatalf("environment fingerprint missing: %+v", got)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	r := New("schema-check", "loadgen")
	r.Schema = "drams-bench/999"
	path, err := r.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// WriteFile preserves a non-empty schema; ReadFile must reject it.
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("expected schema error, got %v", err)
	}
}

func TestGitSHAFromEnv(t *testing.T) {
	t.Setenv("GIT_SHA", "cafe00cafe00")
	if r := New("env", "loadgen"); r.GitSHA != "cafe00cafe00" {
		t.Fatalf("GitSHA = %q, want env override", r.GitSHA)
	}
}
