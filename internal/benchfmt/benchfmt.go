// Package benchfmt defines the machine-readable benchmark report every
// DRAMS perf tool emits: one BENCH_<name>.json per run, carrying the run
// configuration, environment fingerprint (git SHA, Go version, CPU count),
// per-metric summaries, and threshold verdicts. cmd/drams-loadgen and
// cmd/drams-bench share this schema, so CI can archive every run as a
// diffable point on the perf trajectory.
//
// Schema (version "drams-bench/1"):
//
//	{
//	  "schema": "drams-bench/1",
//	  "name": "loadgen_ci-slo",            // report name; file is BENCH_<name>.json
//	  "kind": "loadgen" | "experiment",
//	  "git_sha": "abc123…",                // best-effort, "" outside a checkout
//	  "go_version": "go1.24", "goos": …, "goarch": …, "cpus": 4,
//	  "started_at": RFC3339, "elapsed_ms": 4012.3,
//	  "pass": true,
//	  "config": { … },                     // tool-specific run configuration
//	  "metrics": {                         // per-metric summaries (loadgen)
//	    "latency_ms": {"count":…, "mean":…, "p50":…, "p99":…, "p999":…, "unit":"ms"},
//	    …
//	  },
//	  "thresholds": [                      // declarative SLO verdicts (loadgen)
//	    {"expr": "p99<5ms", "metric": "p99", "actual": 2.1, "pass": true}, …
//	  ],
//	  "table": {"title":…, "header": […], "rows": [[…]], "notes": […]}  // experiment kind
//	}
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"drams/internal/metrics"
)

// Schema is the report format version.
const Schema = "drams-bench/1"

// Metric is the JSON form of a metrics.Summary.
type Metric struct {
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	P999   float64 `json:"p999"`
	StdDev float64 `json:"stddev"`
	Unit   string  `json:"unit,omitempty"`
}

// FromSummary converts a histogram summary.
func FromSummary(s metrics.Summary, unit string) Metric {
	return Metric{
		Count: s.Count, Mean: s.Mean, Min: s.Min, Max: s.Max,
		P50: s.P50, P90: s.P90, P99: s.P99, P999: s.P999,
		StdDev: s.StdDev, Unit: unit,
	}
}

// ThresholdVerdict is one evaluated SLO threshold.
type ThresholdVerdict struct {
	Expr   string  `json:"expr"`
	Metric string  `json:"metric"`
	Actual float64 `json:"actual"`
	Pass   bool    `json:"pass"`
}

// TableData embeds an experiment result table (drams-bench reports).
type TableData struct {
	Title  string     `json:"title,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Report is one benchmark run in machine-readable form.
type Report struct {
	Schema     string             `json:"schema"`
	Name       string             `json:"name"`
	Kind       string             `json:"kind"`
	GitSHA     string             `json:"git_sha,omitempty"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPUs       int                `json:"cpus"`
	StartedAt  time.Time          `json:"started_at"`
	ElapsedMS  float64            `json:"elapsed_ms"`
	Pass       bool               `json:"pass"`
	Config     any                `json:"config,omitempty"`
	Metrics    map[string]Metric  `json:"metrics,omitempty"`
	Thresholds []ThresholdVerdict `json:"thresholds,omitempty"`
	Table      *TableData         `json:"table,omitempty"`
	// FleetMetrics is a flat snapshot of each member's /metrics taken at
	// run end, keyed by source ("netsim" or the daemon's metrics address),
	// then full series name → value (histograms appear through their
	// _bucket/_sum/_count series).
	FleetMetrics map[string]map[string]float64 `json:"fleet_metrics,omitempty"`
}

// New returns a Report stamped with the environment fingerprint. Name must
// be filesystem-safe (it becomes part of the output filename).
func New(name, kind string) *Report {
	return &Report{
		Schema:    Schema,
		Name:      name,
		Kind:      kind,
		GitSHA:    gitSHA(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		StartedAt: time.Now().UTC(),
		Pass:      true,
	}
}

// gitSHA resolves the current commit, best-effort: the GIT_SHA environment
// variable wins (CI sets it cheaply), then `git rev-parse`; "" otherwise.
func gitSHA() string {
	if sha := os.Getenv("GIT_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Filename returns the canonical BENCH_<name>.json basename.
func (r *Report) Filename() string {
	name := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			return c
		}
		return '_'
	}, r.Name)
	return "BENCH_" + name + ".json"
}

// WriteFile writes the report as indented JSON into dir (created if
// missing) and returns the full path.
func (r *Report) WriteFile(dir string) (string, error) {
	if r.Schema == "" {
		r.Schema = Schema
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("benchfmt: output dir: %w", err)
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("benchfmt: encode report: %w", err)
	}
	path := filepath.Join(dir, r.Filename())
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("benchfmt: write report: %w", err)
	}
	return path, nil
}

// ReadFile loads a report back (CI diffing, tests).
//
//lint:ignore deadcode the reader of the format WriteFile writes: benchfmt's and drams-loadgen's tests read their reports back through it
func ReadFile(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("benchfmt: parse %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}
