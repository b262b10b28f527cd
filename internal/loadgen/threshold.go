package loadgen

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"drams/internal/benchfmt"
)

// Threshold is one parsed SLO expression, e.g. `p99<5ms`, `error_rate<0.1%`,
// `dropped<=1%`, `rate>=100`. The grammar is `<metric><op><value>`:
//
//   - metric: a key of the run's metric map (see MetricNames)
//   - op: one of <, <=, >, >=
//   - value: a Go duration ("5ms", "1.5s" — compared in milliseconds), a
//     percentage ("0.1%" — compared as the fraction 0.001), or a bare number
type Threshold struct {
	Expr   string
	Metric string
	Op     string
	Value  float64
}

// MetricNames lists the keys thresholds can reference, with their units.
// Latency quantiles are in milliseconds; error_rate and dropped are
// fractions of scheduled iterations; rate is completed requests per second.
var MetricNames = []string{
	"p50", "p90", "p99", "p999", "mean", "min", "max", // decision latency, ms
	"alert_p50", "alert_p99", "alert_mean", // alert-detection latency, ms
	"error_rate", "dropped", // fractions
	"rate", "count", // throughput
}

var thresholdOps = []string{"<=", ">=", "<", ">"} // two-char ops first

// ParseThreshold parses one threshold expression.
func ParseThreshold(expr string) (Threshold, error) {
	s := strings.TrimSpace(expr)
	if s == "" {
		return Threshold{}, fmt.Errorf("loadgen: empty threshold expression")
	}
	var metric, op, rawVal string
	for _, candidate := range thresholdOps {
		if i := strings.Index(s, candidate); i >= 0 {
			metric, op, rawVal = strings.TrimSpace(s[:i]), candidate, strings.TrimSpace(s[i+len(candidate):])
			break
		}
	}
	if op == "" {
		return Threshold{}, fmt.Errorf("loadgen: threshold %q: no comparison operator (want <metric><op><value> with op one of < <= > >=)", expr)
	}
	if metric == "" {
		return Threshold{}, fmt.Errorf("loadgen: threshold %q: missing metric name", expr)
	}
	known := false
	for _, name := range MetricNames {
		if metric == name {
			known = true
			break
		}
	}
	if !known {
		return Threshold{}, fmt.Errorf("loadgen: threshold %q: unknown metric %q (known: %s)",
			expr, metric, strings.Join(MetricNames, ", "))
	}
	if rawVal == "" {
		return Threshold{}, fmt.Errorf("loadgen: threshold %q: missing value", expr)
	}
	val, err := parseThresholdValue(rawVal)
	if err != nil {
		return Threshold{}, fmt.Errorf("loadgen: threshold %q: %w", expr, err)
	}
	return Threshold{Expr: metric + op + rawVal, Metric: metric, Op: op, Value: val}, nil
}

// parseThresholdValue maps the value grammar onto the metric units:
// durations become milliseconds, percentages become fractions, bare
// numbers pass through.
func parseThresholdValue(s string) (float64, error) {
	if strings.HasSuffix(s, "%") {
		pct, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			return 0, fmt.Errorf("cannot parse value %q: bad percentage", s)
		}
		return pct / 100, nil
	}
	// Bare numbers first: ParseDuration rejects them (except "0"), and a
	// unitless value must not be guessed at.
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d < 0 {
			return 0, fmt.Errorf("negative duration %q", s)
		}
		return float64(d) / float64(time.Millisecond), nil
	}
	return 0, fmt.Errorf("cannot parse value %q (want a number, duration, or percentage)", s)
}

// ParseThresholds parses a list of expressions, failing on the first bad one.
func ParseThresholds(exprs []string) ([]Threshold, error) {
	out := make([]Threshold, 0, len(exprs))
	for _, e := range exprs {
		t, err := ParseThreshold(e)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Evaluate checks the threshold against a metric map and returns the
// verdict. A metric absent from the map fails the threshold (a gate that
// cannot be measured must not silently pass).
func (t Threshold) Evaluate(metrics map[string]float64) benchfmt.ThresholdVerdict {
	v := benchfmt.ThresholdVerdict{Expr: t.Expr, Metric: t.Metric}
	actual, ok := metrics[t.Metric]
	if !ok {
		return v // Pass=false
	}
	v.Actual = actual
	switch t.Op {
	case "<":
		v.Pass = actual < t.Value
	case "<=":
		v.Pass = actual <= t.Value
	case ">":
		v.Pass = actual > t.Value
	case ">=":
		v.Pass = actual >= t.Value
	}
	return v
}

// EvaluateThresholds evaluates every threshold; ok is true only when all
// pass. Verdicts keep the input order.
func EvaluateThresholds(ts []Threshold, metrics map[string]float64) (verdicts []benchfmt.ThresholdVerdict, ok bool) {
	ok = true
	for _, t := range ts {
		v := t.Evaluate(metrics)
		verdicts = append(verdicts, v)
		ok = ok && v.Pass
	}
	return verdicts, ok
}

// FormatVerdicts renders verdicts for terminal output, one per line.
func FormatVerdicts(verdicts []benchfmt.ThresholdVerdict) string {
	var sb strings.Builder
	for _, v := range verdicts {
		mark := "PASS"
		if !v.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&sb, "  %s  %-20s actual=%.4f\n", mark, v.Expr, v.Actual)
	}
	return sb.String()
}
