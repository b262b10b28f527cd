package experiment

import (
	"fmt"
	"strings"

	"drams/internal/attack"
)

// V7Params parameterise the detection campaign.
type V7Params struct {
	// Trials per attack.
	Trials int
	// Seed pins the deployment and netsim RNGs — the whole campaign is
	// reproducible under it.
	Seed uint64
}

// DefaultV7Params runs every attack three times under the standard seed.
func DefaultV7Params() V7Params {
	return V7Params{Trials: 3, Seed: 7}
}

// RunV7 drives the whole threat catalogue (attack.Catalogue: the §I tamper
// attacks and the Byzantine-member classes) against fresh 3-member
// federations and reports detection as a first-class metric: per-attack
// detection rate, p50/p99 detection latency in wall milliseconds and in
// chain blocks (injection → first matching alert), and false-positive
// count; then the A8 forgery and a clean control request.
func RunV7(p V7Params) (Table, error) {
	c := attack.Campaign{
		Scenarios: attack.Catalogue(),
		Trials:    p.Trials,
		Seed:      p.Seed,
	}
	rep, err := c.Run()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "V7",
		Title:  "threat catalogue detection (paper §I and Byzantine members) — latency from injection to alert",
		Header: []string{"attack", "alert", "trials", "detected", "rate", "p50_ms", "p99_ms", "p50_blk", "p99_blk", "false_pos"},
		Notes: []string{
			fmt.Sprintf("3-member federation per attack, Δ=%d blocks, difficulty %d, seed %d (reproducible)",
				attack.TimeoutBlocks, attack.Difficulty, rep.Seed),
			"attack IDs are ARCHITECTURE §9's: A1–A7 and A5b tamper with the data path, the rest are member-level classes",
			"latency is injection → first matching on-chain alert; blocks counted on the monitor's chain view",
			"false_pos counts alerts on requests the attack never touched or of types it cannot cause",
			"A8 and control run once, on the first fleet: an outsider's forged record, and a clean request that must match with no alert",
		},
	}
	for _, r := range rep.Results {
		if r.Err != "" {
			return t, fmt.Errorf("V7: %s: %s", r.ID, r.Err)
		}
		alerts := make([]string, len(r.Expected))
		for i, a := range r.Expected {
			alerts[i] = string(a)
		}
		t.Rows = append(t.Rows, []string{
			r.ID,
			strings.Join(alerts, "|"),
			count(int64(r.Trials)),
			count(int64(r.Detected)),
			pct(r.Detected, r.Trials),
			msF(r.WallMillis.P50),
			msF(r.WallMillis.P99),
			fmt.Sprintf("%.0f", r.Blocks.P50),
			fmt.Sprintf("%.0f", r.Blocks.P99),
			count(int64(r.FalsePositives)),
		})
	}
	refused := 0
	if rep.Forgery.Rejected {
		refused = 1
	}
	t.Rows = append(t.Rows, []string{"A8", "refused at admission", "1", count(int64(refused)),
		pct(refused, 1), "-", "-", "-", "-", "-"})
	if rep.Control.Err != nil {
		return t, fmt.Errorf("V7: control: %w", rep.Control.Err)
	}
	t.Rows = append(t.Rows, []string{"control", "none (matched)", "1", "-", "-", "-", "-", "-", "-",
		count(int64(len(rep.Control.Alerts)))})
	return t, nil
}
