package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const outDir = "benchmark/out"

// runOnce performs one invocation of the benchmark: untraced, one pass
// whose fleet is set up setupRepeats times; traced, runTraced.
func runOnce(s spec, seed int64, seconds float64, traced bool) (*outcome, error) {
	cfg := runConfig{spec: s, seed: seed, seconds: seconds, setups: setupRepeats}
	if !traced {
		return runWorkload(cfg)
	}
	cfg.setups = 1
	return runTraced(cfg, outDir)
}

// runTraced is an untraced pass followed by the traced pass (spans, fleet
// counters, layer replay), each on a fresh fleet. The difference between
// the two is the tracing overhead; the spans go to dir/trace-<workload>.json.
func runTraced(cfg runConfig, dir string) (*outcome, error) {
	plain, err := runWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	cfg.rec = newRecorder()
	out, err := runWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := cfg.rec.write(dir, cfg.spec.Name, cfg.seed); err != nil {
		return nil, err
	}
	out.Failed += plain.Failed
	out.Attempted += plain.Attempted
	out.Failures = append(plain.Failures, out.Failures...)
	L := out.Layer
	L["trace.overhead_pct"] = 100 * (out.Metrics["decide_p50_ms"]/plain.Metrics["decide_p50_ms"] - 1)
	L["host.calib_ms"] = (out.CalibMs[0] + out.CalibMs[1]) / 2
	for _, name := range []string{"decide_p90_ms", "settle_p90_ms", "alert_p50_ms", "flip_activate_p50_ms"} {
		if v, ok := out.Metrics[name]; ok {
			L["e2e."+name] = v
		}
	}
	if v, ok := out.Metrics["loadgen.late_p90_ms"]; ok {
		L["loadgen.late_p90_ms"] = v
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResultLine selects the metrics a run reports: every end-to-end metric
// untraced, every per-layer metric traced. An end-to-end metric the run
// could not measure is an error, never a 0; a layer that is not on the
// workload's path reports 0.
func newResultLine(o *outcome, traced bool) (resultLine, error) {
	line := resultLine{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = metricValue{Value: o.Layer[d.Name], Unit: d.Unit}
		}
		return line, nil
	}
	for _, d := range endToEnd {
		v, ok := o.Metrics[d.Name]
		if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return resultLine{}, fmt.Errorf("%s: %s not measurable (%d samples)", o.Workload, d.Name, o.Samples[d.Name])
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return line, nil
}

// host describes where a result was measured; results are only comparable
// between like hosts.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() host {
	return host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NProc: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// runReport is the full record of one run, as -report writes it.
type runReport struct {
	Host    host     `json:"host"`
	Seconds float64  `json:"seconds"`
	Traced  bool     `json:"traced"`
	Outcome *outcome `json:"outcome"`
}

func writeReport(dir string, o *outcome, seconds float64, traced bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(runReport{Host: thisHost(), Seconds: seconds, Traced: traced, Outcome: o}, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.Workload, o.Seed, trace)), data, 0o644)
}

// resultSet is several runs per workload with their medians and quartiles:
// what -collect writes, what -compare reads, and what baseline/ holds.
type resultSet struct {
	Host      host                    `json:"host"`
	Bounds    map[string]float64      `json:"bounds"`
	Workloads map[string]*workloadSet `json:"workloads"`
	// AASets are the separate sets of identical code a baseline was pooled
	// from: the raw material the shipped bounds were derived from.
	AASets []*resultSet `json:"aa_sets,omitempty"`
	Label  string       `json:"label,omitempty"`
}

type workloadSet struct {
	Runs      int                   `json:"runs"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]*metricSet `json:"metrics"`
}

type metricSet struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile range as a share of the median.
func (m *metricSet) spread() float64 { return (m.Q3 - m.Q1) / m.Median }

// metric returns the named metric of a workload in the set, creating both
// as needed.
func (set *resultSet) metric(workload, name, unit, better string) (*workloadSet, *metricSet) {
	ws := set.Workloads[workload]
	if ws == nil {
		ws = &workloadSet{Metrics: map[string]*metricSet{}}
		set.Workloads[workload] = ws
	}
	ms := ws.Metrics[name]
	if ms == nil {
		ms = &metricSet{Unit: unit, Better: better}
		ws.Metrics[name] = ms
	}
	return ws, ms
}

func (set *resultSet) summarise() {
	for _, ws := range set.Workloads {
		for _, ms := range ws.Metrics {
			ms.Q1, ms.Median, ms.Q3 = quartiles(ms.Values)
		}
	}
}

func newResultSet(label string) *resultSet {
	set := &resultSet{Bounds: map[string]float64{}, Workloads: map[string]*workloadSet{}, Label: label}
	for _, d := range endToEnd {
		set.Bounds[d.Name] = d.Bound
	}
	return set
}

// collectDir folds the untraced run reports of one directory into a set.
func collectDir(dir string) (*resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no untraced run reports in %s", dir)
	}
	sort.Strings(paths)
	set := newResultSet(filepath.Base(dir))
	defs := map[string]metricDef{}
	for _, d := range endToEnd {
		defs[d.Name] = d
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep runReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set.Host = rep.Host
		o := rep.Outcome
		// Besides the end-to-end metrics a report carries the informational
		// timings (p90s, alert and flip latency, generator lateness, raw
		// CPU); they are kept in the set, in ms, and never compared.
		var ws *workloadSet
		for name, v := range o.Metrics {
			unit, better := "ms", "lower"
			if d, ok := defs[name]; ok {
				unit, better = d.Unit, d.Better
			}
			var ms *metricSet
			ws, ms = set.metric(o.Workload, name, unit, better)
			ms.Values = append(ms.Values, v)
		}
		ws.Runs++
		ws.Attempted += o.Attempted
		ws.Failed += o.Failed
	}
	set.summarise()
	return set, nil
}

// runCollect writes one set for a single directory; for several
// (comma-separated) it writes their pool with each directory kept beside
// it as an A/A set — the shape of a committed baseline.
func runCollect(dirs string, w io.Writer) error {
	var sets []*resultSet
	for _, dir := range strings.Split(dirs, ",") {
		set, err := collectDir(dir)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	out := sets[0]
	if len(sets) > 1 {
		out = newResultSet("")
		out.Host, out.AASets = sets[0].Host, sets
		for _, set := range sets {
			for workload, ws := range set.Workloads {
				var pool *workloadSet
				for name, ms := range ws.Metrics {
					var pm *metricSet
					pool, pm = out.metric(workload, name, ms.Unit, ms.Better)
					pm.Values = append(pm.Values, ms.Values...)
				}
				pool.Runs += ws.Runs
				pool.Attempted += ws.Attempted
				pool.Failed += ws.Failed
			}
		}
		out.summarise()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// worsening returns by what share of the old median the new median is
// worse (negative when it is better).
func worsening(better string, old, new float64) float64 {
	if better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// compareSets applies the shipped bounds to two sets and reports every
// pairing of workload and end-to-end metric in its own row. It returns the
// number of regressions: a median worse than the old one by more than the
// metric's bound, or a higher share of failed operations.
func compareSets(old, new *resultSet, w io.Writer) int {
	regressions := 0
	if old.Host != new.Host {
		fmt.Fprintf(w, "warning: hosts differ (%+v vs %+v); only like hosts are comparable\n", old.Host, new.Host)
	}
	var names []string
	for name := range old.Workloads {
		if new.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-22s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "worse", "bound", "spread", "verdict")
	for _, name := range names {
		ow, nw := old.Workloads[name], new.Workloads[name]
		oldShare := float64(ow.Failed) / float64(max(ow.Attempted, 1))
		newShare := float64(nw.Failed) / float64(max(nw.Attempted, 1))
		if newShare > oldShare {
			regressions++
			fmt.Fprintf(w, "%-13s %-22s %12.6f %12.6f %8s %7s %7s  REGRESSION: more operations fail\n", name, "failed_share", oldShare, newShare, "", "", "")
		}
		for _, d := range endToEnd {
			om, nm := ow.Metrics[d.Name], nw.Metrics[d.Name]
			if om == nil || nm == nil {
				continue
			}
			worse := worsening(d.Better, om.Median, nm.Median)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			case om.spread() > d.Bound:
				// The old runs alone scatter wider than the bound, so a
				// median inside it does not show the metric unchanged.
				verdict = "unresolved (spread wider than bound)"
			}
			fmt.Fprintf(w, "%-13s %-22s %12.4f %12.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				name, d.Name, om.Median, nm.Median, 100*worse, 100*d.Bound, 100*om.spread(), verdict)
		}
	}
	return regressions
}

func runCompare(oldPath, newPath string, w io.Writer) int {
	old, err := readSet(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	new, err := readSet(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if n := compareSets(old, new, w); n > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", n)
		return 1
	}
	return 0
}
