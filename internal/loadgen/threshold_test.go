package loadgen

import (
	"sort"
	"strings"
	"testing"
)

// sortedMetricKeys returns the map keys in stable order.
func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestParseThreshold(t *testing.T) {
	cases := []struct {
		expr    string
		metric  string
		op      string
		value   float64
		wantErr string
	}{
		{expr: "p99<5ms", metric: "p99", op: "<", value: 5},
		{expr: "p99 < 5ms", metric: "p99", op: "<", value: 5},
		{expr: "p50<=250us", metric: "p50", op: "<=", value: 0.25},
		{expr: "mean<1.5s", metric: "mean", op: "<", value: 1500},
		{expr: "error_rate<0.1%", metric: "error_rate", op: "<", value: 0.001},
		{expr: "error_rate<=1%", metric: "error_rate", op: "<=", value: 0.01},
		{expr: "dropped<1%", metric: "dropped", op: "<", value: 0.01},
		{expr: "rate>100", metric: "rate", op: ">", value: 100},
		{expr: "rate>=99.5", metric: "rate", op: ">=", value: 99.5},
		{expr: "count>1000", metric: "count", op: ">", value: 1000},
		{expr: "alert_p99<2s", metric: "alert_p99", op: "<", value: 2000},
		{expr: "p999<1m", metric: "p999", op: "<", value: 60000},

		{expr: "", wantErr: "empty"},
		{expr: "p99", wantErr: "no comparison"},
		{expr: "p99=5ms", wantErr: "no comparison"},
		{expr: "p99==5ms", wantErr: "no comparison"},
		{expr: "bogus<5ms", wantErr: "unknown metric"},
		{expr: "<5ms", wantErr: "missing metric"},
		{expr: "p99<", wantErr: "missing value"},
		{expr: "p99<fast", wantErr: "cannot parse value"},
		{expr: "p99<5 ms extra", wantErr: "cannot parse value"},
		{expr: "error_rate<%", wantErr: "cannot parse value"},
	}
	for _, tc := range cases {
		th, err := ParseThreshold(tc.expr)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("ParseThreshold(%q): expected error containing %q, got %+v", tc.expr, tc.wantErr, th)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseThreshold(%q): error %q does not contain %q", tc.expr, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseThreshold(%q): unexpected error %v", tc.expr, err)
			continue
		}
		if th.Metric != tc.metric || th.Op != tc.op || !almostEq(th.Value, tc.value) {
			t.Errorf("ParseThreshold(%q) = {%s %s %g}, want {%s %s %g}",
				tc.expr, th.Metric, th.Op, th.Value, tc.metric, tc.op, tc.value)
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestThresholdEvaluate(t *testing.T) {
	m := map[string]float64{"p99": 4.2, "error_rate": 0.002, "dropped": 0, "rate": 120}
	cases := []struct {
		expr string
		pass bool
	}{
		{"p99<5ms", true},
		{"p99<4ms", false},
		{"p99<=4.2", true},
		{"p99>4ms", true},
		{"p99>=4.2", true},
		{"error_rate<0.1%", false},
		{"error_rate<1%", true},
		{"dropped<1%", true},
		{"rate>100", true},
		{"rate>200", false},
		// Metric absent from the run (e.g. alert latency with monitoring
		// off) must fail loudly, not vacuously pass.
		{"alert_p99<1s", false},
	}
	for _, tc := range cases {
		th, err := ParseThreshold(tc.expr)
		if err != nil {
			t.Fatalf("ParseThreshold(%q): %v", tc.expr, err)
		}
		v := th.Evaluate(m)
		if v.Pass != tc.pass {
			t.Errorf("Evaluate(%q) pass=%v, want %v (actual=%g)", tc.expr, v.Pass, tc.pass, v.Actual)
		}
		if v.Expr != tc.expr {
			t.Errorf("Evaluate(%q): verdict echoes expr %q", tc.expr, v.Expr)
		}
	}
}

func TestEvaluateThresholdsAggregate(t *testing.T) {
	m := map[string]float64{"p99": 10, "error_rate": 0}
	ths, err := ParseThresholds([]string{"p99<20ms", "error_rate<1%"})
	if err != nil {
		t.Fatal(err)
	}
	verdicts, ok := EvaluateThresholds(ths, m)
	if !ok || len(verdicts) != 2 {
		t.Fatalf("expected all-pass with 2 verdicts, got ok=%v verdicts=%+v", ok, verdicts)
	}
	ths2, err := ParseThresholds([]string{"p99<20ms", "p99<5ms"})
	if err != nil {
		t.Fatal(err)
	}
	verdicts, ok = EvaluateThresholds(ths2, m)
	if ok {
		t.Fatalf("expected failure, got ok=true: %+v", verdicts)
	}
	if !verdicts[0].Pass || verdicts[1].Pass {
		t.Fatalf("per-verdict results wrong: %+v", verdicts)
	}
	out := FormatVerdicts(verdicts)
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "FAIL") {
		t.Fatalf("FormatVerdicts output missing PASS/FAIL markers:\n%s", out)
	}
}

func TestParseThresholdsPropagatesError(t *testing.T) {
	if _, err := ParseThresholds([]string{"p99<5ms", "junk"}); err == nil {
		t.Fatal("expected error for malformed list entry")
	}
}

func TestSortedMetricKeys(t *testing.T) {
	keys := sortedMetricKeys(map[string]float64{"p99": 1, "dropped": 2, "rate": 3})
	want := []string{"dropped", "p99", "rate"}
	if len(keys) != len(want) {
		t.Fatalf("got %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("got %v, want %v", keys, want)
		}
	}
}
