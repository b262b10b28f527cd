// Package experiment implements the drivers of the tables cmd/drams-bench
// prints: E2 and E3 (the §III Log Size latency discussion: storage latency
// against record size and PoW difficulty), E5 (the §I threat catalogue with
// wall-time latency and multi-trial rates), E6 and E7 (the cost of
// monitoring and of the analyser), and V6 and V7 (fast resync, adversarial
// detection). A claim a tier-1 test already checks lives in that test, not
// here; README "Tests and benchmarks" and ARCHITECTURE §3 list both.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"drams"
	"drams/internal/federation"
	"drams/internal/xacml"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values.
func (t Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Header, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond)) }

// msF formats milliseconds with two decimals, and with four below
// 0.01 ms, so a latency of a few microseconds (an unmonitored decide) does
// not read 0.
func msF(v float64) string {
	if v < 0.01 {
		return fmt.Sprintf("%.4f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func count(n int64) string    { return fmt.Sprintf("%d", n) }
func pct(num, den int) string { return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(max(1, den))) }
func rate(n int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1f", float64(n)/d.Seconds())
}

// StandardRequest builds the i-th benchmark request (cycling through
// permit/deny outcomes).
func StandardRequest(dep *drams.Deployment, i int) *xacml.Request {
	roles := []string{"doctor", "nurse", "intern"}
	ops := []string{"read", "write"}
	return dep.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String(roles[i%len(roles)])).
		Add(xacml.CatAction, "op", xacml.String(ops[(i/3)%len(ops)])).
		Add(xacml.CatResource, "type", xacml.String("record"))
}

// NewStandardDeployment builds the deployment shape shared by the system
// experiments: two clouds, one edge tenant each, plus the infrastructure
// tenant.
func NewStandardDeployment(monitorOff bool, timeoutBlocks uint64) (*drams.Deployment, error) {
	if timeoutBlocks == 0 {
		timeoutBlocks = 30
	}
	return drams.Open(xacml.StandardPolicy("v1"),
		drams.WithTopology(federation.SimpleTopology("bench", 2)),
		drams.WithDifficulty(8),
		drams.WithTimeoutBlocks(timeoutBlocks),
		drams.WithEmptyBlockInterval(15*time.Millisecond),
		drams.WithMonitoring(!monitorOff),
		drams.WithSeed(1),
	)
}
