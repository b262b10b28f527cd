package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The smoke runs use 1/20 of the nominal work: 30 arrivals, 120 completions,
// 15 000 decisions, one set-up each, five warm-up exchanges.
const (
	smokeSeconds = nominalSeconds / 20.0
	smokeWarmup  = 5
)

func smokeConfig(s spec) runConfig {
	warm := smokeWarmup
	if !s.Monitored {
		warm = 1000
	}
	return runConfig{spec: s, seed: 1, seconds: smokeSeconds, warmup: warm, setups: 1}
}

// TestSmokeAllWorkloads runs every workload end to end at 1/20 scale: no
// operation may fail (alert iff tampered, decisions equal the reference
// PDP's, all flips activate, the chain nodes agree after drain — a
// disagreement is a run error), and every end-to-end metric must be
// present, finite and non-zero.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four fleets")
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			out, err := runWorkload(smokeConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("failed %d of %d: %v", out.Failed, out.Attempted, out.Failures)
			}
			for _, d := range endToEnd {
				v, ok := out.Metrics[d.Name]
				if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v), want a finite positive value", d.Name, v, ok)
				}
				if d.Unit == "" || d.Bound <= 0 || d.Bound > 0.25 {
					t.Errorf("%s: unit %q bound %v", d.Name, d.Unit, d.Bound)
				}
			}
			// The informational p90 is reported exactly when ten samples
			// lie beyond it: 120 completions support it, 30 arrivals do not.
			n := out.Samples["decide_p90_ms"]
			_, has := out.Metrics["decide_p90_ms"]
			if supported := n-int(math.Ceil(0.9*float64(n))) >= minBeyond; has != supported {
				t.Errorf("decide_p90_ms present=%v with %d samples, want %v", has, n, supported)
			}
			if s.Flips && out.Samples["flip_activate_p50_ms"] != flipCount {
				t.Errorf("%d of %d flips activated", out.Samples["flip_activate_p50_ms"], flipCount)
			}
			if s.TamperShare > 0 && out.Samples["alert_p50_ms"] == 0 {
				t.Error("no tampered exchange raised its alert")
			}
			line, err := newResultLine(out, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(endToEnd) || !line.Correct {
				t.Fatalf("result line has %d metrics, correct=%v", len(line.Metrics), line.Correct)
			}
		})
	}
}

// TestSmokeTracedPass runs the traced invocation (untraced pass, traced
// pass, layer replay) of the workload that exercises every layer and checks
// that each per-layer metric is reported and the trace file is written.
func TestSmokeTracedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fleets and the layer replay")
	}
	s, _ := specByName("capacity")
	cfg := smokeConfig(s)
	dir := t.TempDir()
	out, err := runTraced(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("failed %d of %d: %v", out.Failed, out.Attempted, out.Failures)
	}
	line, err := newResultLine(out, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		mv, ok := line.Metrics[d.Name]
		if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("%s = %+v (present %v), want a finite value in %s", d.Name, mv, ok, d.Unit)
		}
	}
	// On a monitored closed loop every replayed layer is on the path.
	for _, name := range []string{"xacml.eval_miss_us", "transport.call_us", "logger.log_us", "crypto.sign_us",
		"blockchain.apply_us_per_tx", "blockchain.blocks_per_exchange", "core.contract_exec_us_per_tx",
		"core.state_keys_end", "logger.records_per_batch", "transport.msgs_per_exchange", "host.calib_ms"} {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on capacity", name, line.Metrics[name].Value)
		}
	}
	for _, name := range []string{"logger.dropped", "core.analyser_failures", "core.monitor_stream_dropped", "pap.rejections", "pap.activations"} {
		if line.Metrics[name].Value != 0 {
			t.Errorf("%s = %v, want 0 on capacity", name, line.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-capacity.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"exchange", "decide", "await-match", "replay:blockchain"} {
		if tf.CountByName[name] == 0 {
			t.Errorf("trace has no %q span (have %v)", name, tf.CountByName)
		}
	}
	if tf.CountByName["exchange"] != tf.CountByName["decide"] {
		t.Errorf("%d exchange spans but %d decide spans", tf.CountByName["exchange"], tf.CountByName["decide"])
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// manifest is BENCHMARK.json: exactly the keys the benchmark contract names.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantManifest() manifest {
	m := manifest{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: nominalSeconds}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: s.Name, Why: s.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables the driver
// prints from in step, and inside the limits the contract sets.
func TestManifestMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s is out of step with the tables in metrics.go and plan.go; run go test ./benchmark -run TestManifest -update", path)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if n == "" || len(n) > 64 || seen[n] {
			t.Errorf("name %q is empty, too long or used twice", n)
		}
		seen[n] = true
	}
	for _, s := range specs {
		name(s.Name)
		if len(s.Why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", s.Name, len(s.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		name(d.Name)
		if len(d.Unit) > 16 || d.Moves == "" {
			t.Errorf("%s: unit %q, prediction %q", d.Name, d.Unit, d.Moves)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(specs) > 8 {
		t.Error("too many metrics or workloads for the contract")
	}
}
