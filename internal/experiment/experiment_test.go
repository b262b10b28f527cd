package experiment

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Small-parameter smoke runs: every driver must complete and its table
// shape must be sane. The real sweeps run in bench_test.go / drams-bench.

func cell(t *testing.T, tab Table, row int, col string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("table %s has no column %q", tab.ID, col)
	return ""
}

func cellFloat(t *testing.T, tab Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("cell %s[%d] = %q not a number", col, row, cell(t, tab, row, col))
	}
	return v
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := Table{ID: "X", Title: "demo", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := tab.Render()
	for _, want := range []string{"== X: demo ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("csv = %q", csv)
	}
}

func TestRunE1Smoke(t *testing.T) {
	tab, err := RunE1(E1Params{Requests: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string]string{}
	for _, row := range tab.Rows {
		byMetric[row[0]] = row[1]
	}
	if byMetric["alerts (expect 0)"] != "0" {
		t.Fatalf("alerts = %s", byMetric["alerts (expect 0)"])
	}
	if byMetric["matched exchanges"] == "0" {
		t.Fatal("nothing matched")
	}
}

func TestRunE2Smoke(t *testing.T) {
	tab, err := RunE2(E2Params{Sizes: []int{64, 4096}, Difficulties: []uint8{6}, Samples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if v := cellFloat(t, tab, i, "p50_ms"); v <= 0 {
			t.Fatalf("row %d p50 = %v", i, v)
		}
	}
}

func TestRunE3ShapeMonotone(t *testing.T) {
	tab, err := RunE3(E3Params{Difficulties: []uint8{4, 10, 14}, Blocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Expected hashes must grow by the difficulty ratio (exact), and the
	// probability columns must be constant across rows.
	h0 := cellFloat(t, tab, 0, "hashes_expected")
	h2 := cellFloat(t, tab, 2, "hashes_expected")
	if h2 != h0*1024 {
		t.Fatalf("hashes: %v vs %v", h0, h2)
	}
}

func TestRunE4Smoke(t *testing.T) {
	tab, err := RunE4(E4Params{Writes: 24, BatchSizes: []int{8}, ValueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row
	}
	if len(rows) != 3 { // pure-db, hybrid-8, pure-chain
		t.Fatalf("modes = %v", rows)
	}
	if cell(t, tab, 0, "tamper_detected") != "no" {
		t.Fatal("pure-db should not detect tampering")
	}
	for i, row := range tab.Rows {
		if strings.HasPrefix(row[0], "hybrid") || row[0] == "pure-chain" {
			if cell(t, tab, i, "tamper_detected") != "yes" {
				t.Fatalf("%s did not detect tampering", row[0])
			}
		}
	}
	// Shape: pure-db p50 <= hybrid p50 <= pure-chain p50.
	var dbP50, hybP50, chainP50 float64
	for i, row := range tab.Rows {
		switch {
		case row[0] == "pure-db":
			dbP50 = cellFloat(t, tab, i, "p50_ms")
		case strings.HasPrefix(row[0], "hybrid"):
			hybP50 = cellFloat(t, tab, i, "p50_ms")
		case row[0] == "pure-chain":
			chainP50 = cellFloat(t, tab, i, "p50_ms")
		}
	}
	if !(dbP50 <= hybP50*10 && hybP50 < chainP50) {
		t.Fatalf("latency ordering violated: db=%v hybrid=%v chain=%v", dbP50, hybP50, chainP50)
	}
}

func TestRunE5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("E5 full matrix in -short mode")
	}
	tab, err := RunE5(E5Params{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		name := row[0]
		if name == "control (no attack)" {
			if !strings.HasPrefix(row[3], "0 ") {
				t.Fatalf("control row: %v", row)
			}
			continue
		}
		if got := cell(t, tab, i, "rate"); !strings.HasPrefix(got, "100") && got != "yes" {
			t.Fatalf("%s detection rate = %s", name, got)
		}
	}
}

func TestRunE6Smoke(t *testing.T) {
	tab, err := RunE6(E6Params{Requests: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want off and async", len(tab.Rows))
	}
	for i := range tab.Rows {
		if p50 := cellFloat(t, tab, i, "p50_ms"); p50 <= 0 {
			t.Fatalf("%s: p50 = %v ms, want > 0", tab.Rows[i][0], p50)
		}
	}
}

func TestRunE7ShapeGrowsWithRules(t *testing.T) {
	// Per-request evaluation cost fluctuates with the random policy shape
	// (short-circuiting), so the asserted shape is the structural one:
	// compile time grows with rule count, and every measurement is
	// positive. The far-apart rule counts keep this robust under noisy
	// schedulers (e.g. -race).
	tab, err := RunE7(E7Params{RuleCounts: []int{10, 1000}, Requests: 50})
	if err != nil {
		t.Fatal(err)
	}
	smallCompile := cellFloat(t, tab, 0, "compile_ms")
	bigCompile := cellFloat(t, tab, 1, "compile_ms")
	if bigCompile <= smallCompile {
		t.Fatalf("compile cost should grow with rules: %v vs %v", smallCompile, bigCompile)
	}
	for i := range tab.Rows {
		if v := cellFloat(t, tab, i, "expected_us_per_req"); v <= 0 {
			t.Fatalf("row %d expected_us_per_req = %v", i, v)
		}
	}
}

func TestRunE8Smoke(t *testing.T) {
	tab, err := RunE8(E8Params{CloudCounts: []int{2}, Requests: 6})
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tab, 0, "alerts") != "0" {
		t.Fatalf("alerts = %s", cell(t, tab, 0, "alerts"))
	}
}

func TestRunAB1Smoke(t *testing.T) {
	tab, err := RunAB1(AB1Params{TimeoutBlocks: []uint64{5, 20}, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Detection latency in blocks must track the window size.
	small := cellFloat(t, tab, 0, "detect_mean_blocks")
	big := cellFloat(t, tab, 1, "detect_mean_blocks")
	if big <= small {
		t.Fatalf("Δ ablation shape violated: %v vs %v blocks", small, big)
	}
}

func TestRunAB2AnalyserMatters(t *testing.T) {
	tab, err := RunAB2(AB2Params{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	full, ablated := tab.Rows[0], tab.Rows[1]
	if full[2] != "1/1" {
		t.Fatalf("full config missed A4: %v", full)
	}
	if ablated[2] != "0/1" {
		t.Fatalf("ablated config should miss A4: %v", ablated)
	}
	// A3 is caught by log matching alone in both configurations.
	if full[1] != "1/1" || ablated[1] != "1/1" {
		t.Fatalf("A3 rows: full=%v ablated=%v", full, ablated)
	}
}

func TestStandardDeploymentModes(t *testing.T) {
	dep, err := NewStandardDeployment(2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	req := StandardRequest(dep, 0) // doctor read → permit
	enf, err := client.Decide(context.Background(), req)
	if err != nil || !enf.Permitted() {
		t.Fatalf("standard request: %v %v", enf, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := dep.Monitor.Matched(req.ID); ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("standard request never matched")
}

func TestRunV6Smoke(t *testing.T) {
	// Reduced rejoin run: both windows over a short chain, with the
	// batched window required to beat one block per call on transport
	// calls — the round-trip economics V6 exists to prove (state-digest
	// equality is cross-checked inside RunV6).
	tab, err := RunV6(V6Params{ChainLengths: []int{48}, SyncBatch: 16,
		NetLatency: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	calls := make(map[string]int)
	for _, row := range tab.Rows {
		n, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("calls cell %q: %v", row[3], err)
		}
		calls[row[1]] = n
	}
	if calls["window 1"] != 48+1 {
		t.Fatalf("window 1 used %d calls for 48 blocks, want blocks + 1", calls["window 1"])
	}
	if batched := calls["batched(16)"]; batched >= calls["window 1"]/4 {
		t.Fatalf("batched sync used %d calls vs window 1 %d", batched, calls["window 1"])
	}
}
