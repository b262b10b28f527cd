package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"

	"drams/internal/metrics"
)

// WriteExposition renders samples in Prometheus text exposition format
// (version 0.0.4): one # HELP and # TYPE line per metric family followed
// by its series. Histogram samples become native prometheus histograms —
// cumulative <family>_bucket{le="..."} series (with a terminal le="+Inf"),
// <family>_sum and <family>_count. Samples must already be sorted so
// series of one family are contiguous (Gather guarantees this).
func WriteExposition(w io.Writer, samples []metrics.Sample) error {
	var prevFamily string
	for _, s := range samples {
		family, labels := metrics.SplitSeries(s.Name)
		if family != prevFamily {
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, escapeHelp(s.Help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, s.Kind); err != nil {
				return err
			}
			prevFamily = family
		}
		switch s.Kind {
		case metrics.KindHistogram:
			if err := writeHistogram(w, family, labels, s.Hist); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %d\n", s.Name, s.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram emits the cumulative bucket/sum/count series for one
// histogram series (labels is the series' own label suffix, "{...}" or "").
func writeHistogram(w io.Writer, family, labels string, ex *metrics.HistExport) error {
	if ex == nil {
		ex = &metrics.HistExport{}
	}
	for _, b := range ex.Buckets {
		le := strconv.FormatFloat(b.LE, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", family, mergeLabel(labels, "le", le), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", family, mergeLabel(labels, "le", "+Inf"), ex.Count); err != nil {
		return err
	}
	sum := ex.Sum
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		sum = 0
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", family, labels, strconv.FormatFloat(sum, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", family, labels, ex.Count)
	return err
}

// mergeLabel appends key="value" to an existing label suffix.
func mergeLabel(labels, key, value string) string {
	pair := key + `="` + value + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ParseValues is the scrape side of WriteExposition: it reads text
// exposition and returns a flat series→value map. Histogram families
// appear through their derived _bucket/_sum/_count series. Comment and
// blank lines are skipped; a malformed sample line is an error.
func ParseValues(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The series name ends at the closing '}' when labelled (label
		// values may contain spaces), else at the first space.
		var name, rest string
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			name, rest = line[:i+1], strings.TrimSpace(line[i+1:])
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name, rest = line[:i], strings.TrimSpace(line[i+1:])
		} else {
			return nil, fmt.Errorf("obs: malformed exposition line %q", line)
		}
		if f := strings.Fields(rest); len(f) > 0 {
			rest = f[0] // drop an optional trailing timestamp
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %q: %w", line, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// FlattenValues reduces a sample set to the flat series→value map a
// scraper would reconstruct from the rendered exposition (loadgen embeds
// fleet snapshots in BENCH reports in this form).
func FlattenValues(samples []metrics.Sample) map[string]float64 {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, samples); err != nil {
		return nil
	}
	out, err := ParseValues(&buf)
	if err != nil {
		return nil
	}
	return out
}

var (
	familyRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelsRe = regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\}$`)
)

// Lint applies promtool-check-metrics-style rules to a sample set:
// valid metric and label names, help text present for every family,
// counters suffixed _total, histograms/gauges not pretending to be
// counters, and no family exposed under two different kinds. A clean
// fleet registry must return nil.
//
//lint:ignore deadcode exposition checker for tests: obs's own tests and the root package's TestMetricsExpositionLint lint sample sets with it
func Lint(samples []metrics.Sample) []error {
	var errs []error
	kinds := make(map[string]metrics.Kind)
	for _, s := range samples {
		family, labels := metrics.SplitSeries(s.Name)
		if !familyRe.MatchString(family) {
			errs = append(errs, fmt.Errorf("%s: invalid metric name", s.Name))
		}
		if labels != "" && !labelsRe.MatchString(labels) {
			errs = append(errs, fmt.Errorf("%s: malformed label suffix %q", s.Name, labels))
		}
		if s.Help == "" {
			errs = append(errs, fmt.Errorf("%s: no help text", family))
		}
		if s.Kind == metrics.KindCounter && !strings.HasSuffix(family, "_total") {
			errs = append(errs, fmt.Errorf("%s: counter not suffixed _total", family))
		}
		if s.Kind != metrics.KindCounter && strings.HasSuffix(family, "_total") {
			errs = append(errs, fmt.Errorf("%s: non-counter suffixed _total", family))
		}
		if prev, ok := kinds[family]; ok && prev != s.Kind {
			errs = append(errs, fmt.Errorf("%s: exposed as both %s and %s", family, prev, s.Kind))
		}
		kinds[family] = s.Kind
	}
	return errs
}
