package experiment

import (
	"context"
	"fmt"
	"time"

	"drams"
	"drams/internal/core"
	"drams/internal/federation"
	"drams/internal/metrics"
	"drams/internal/xacml"
)

// Ablations quantify two design choices (ARCHITECTURE §3): the M3 timeout
// window Δ (detection latency vs. patience) and the Analyser (which attacks
// become invisible without it).

// AB1Params parameterise the Δ sweep.
type AB1Params struct {
	TimeoutBlocks []uint64
	Trials        int
}

// DefaultAB1Params sweeps Δ ∈ {5, 10, 20, 40}.
func DefaultAB1Params() AB1Params {
	return AB1Params{TimeoutBlocks: []uint64{5, 10, 20, 40}, Trials: 2}
}

// RunAB1 measures suppression-detection latency as a function of the M3
// window Δ: detecting an *absent* message fundamentally costs Δ blocks, so
// the knob trades detection speed against tolerance for slow pipelines.
func RunAB1(p AB1Params) (Table, error) {
	t := Table{
		ID:     "AB1",
		Title:  "ablation: M3 timeout window Δ vs. suppression-detection latency",
		Header: []string{"timeout_blocks", "trials", "detect_mean_ms", "detect_mean_blocks"},
		Notes: []string{
			"attack: request suppression (A6); detection requires the window to expire",
			"expected shape: latency ≈ Δ × block interval — the structural cost of absence detection",
		},
	}
	for _, delta := range p.TimeoutBlocks {
		dep, err := drams.Open(StandardPolicy("v1"),
			drams.WithDifficulty(8),
			drams.WithTimeoutBlocks(delta),
			drams.WithEmptyBlockInterval(15*time.Millisecond),
			drams.WithSeed(3),
		)
		if err != nil {
			return t, err
		}
		client, err := dep.Client("tenant-1")
		if err != nil {
			dep.Close()
			return t, err
		}
		lat := metrics.NewHistogram()
		blocks := metrics.NewHistogram()
		for trial := 0; trial < p.Trials; trial++ {
			if err := dep.TamperPEP("tenant-1", &federation.Tamper{DropRequest: true}); err != nil {
				dep.Close()
				return t, err
			}
			req := StandardRequest(dep, trial)
			_, startHeight := dep.InfraNode().Chain().Head()
			t0 := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			_, _ = client.Decide(ctx, req)
			alert, err := dep.WaitForAlert(ctx, req.ID, core.AlertMessageSuppressed)
			cancel()
			if err != nil {
				dep.Close()
				return t, fmt.Errorf("AB1 Δ=%d: %w", delta, err)
			}
			lat.ObserveDuration(time.Since(t0))
			blocks.Observe(float64(alert.Height - startHeight))
			_ = dep.TamperPEP("tenant-1", nil)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", delta), fmt.Sprintf("%d", p.Trials),
			msF(lat.Snapshot().Mean), fmt.Sprintf("%.1f", blocks.Snapshot().Mean),
		})
		dep.Close()
	}
	return t, nil
}

// AB2Params parameterise the analyser ablation.
type AB2Params struct {
	Trials int
}

// DefaultAB2Params uses 2 trials per configuration.
func DefaultAB2Params() AB2Params { return AB2Params{Trials: 2} }

// flipEval is a compromised PDP for the ablation (same as attack A4).
type flipEval struct{ inner xacml.Evaluator }

func (f flipEval) Evaluate(r *xacml.Request) (xacml.Result, error) {
	res, err := f.inner.Evaluate(r)
	if err != nil {
		return res, err
	}
	if res.Decision == xacml.Permit {
		res.Decision = xacml.Deny
	} else {
		res.Decision = xacml.Permit
	}
	return res, nil
}

// RunAB2 removes the Analyser and shows exactly what is lost: transit and
// enforcement attacks (M1–M4) are still caught by log matching alone, but a
// compromised PDP that reports a consistent wrong decision (A4) becomes
// invisible — the checks the paper assigns to the Analyser are not
// redundant with the matching algorithms.
func RunAB2(p AB2Params) (Table, error) {
	t := Table{
		ID:     "AB2",
		Title:  "ablation: detection with and without the Analyser (M5)",
		Header: []string{"configuration", "A3 PEP override", "A4 PDP altered", "clean traffic"},
		Notes: []string{
			"cells: detected/trials (A3, A4) and false alerts (clean)",
			"without the analyser, A4 produces a perfectly consistent — and wrong — exchange",
		},
	}
	for _, withAnalyser := range []bool{true, false} {
		opts := []drams.Option{
			drams.WithDifficulty(8),
			drams.WithTimeoutBlocks(15),
			drams.WithEmptyBlockInterval(15 * time.Millisecond),
			drams.WithSeed(4),
		}
		if !withAnalyser {
			opts = append(opts, drams.WithoutVerdicts())
		}
		dep, err := drams.Open(StandardPolicy("v1"), opts...)
		if err != nil {
			return t, err
		}
		if !withAnalyser {
			dep.Analyser.Stop()
		}
		client, err := dep.Client("tenant-1")
		if err != nil {
			dep.Close()
			return t, err
		}

		runAttack := func(install func() error, clear func(), alertType core.AlertType) (int, error) {
			detected := 0
			for trial := 0; trial < p.Trials; trial++ {
				if err := install(); err != nil {
					return detected, err
				}
				req := dep.NewRequest().
					Add(xacml.CatSubject, "role", xacml.String("intern")).
					Add(xacml.CatAction, "op", xacml.String("read"))
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, _ = client.Decide(ctx, req)
				if _, err := dep.WaitForAlert(ctx, req.ID, alertType); err == nil {
					detected++
				}
				cancel()
				clear()
			}
			return detected, nil
		}

		a3, err := runAttack(
			func() error {
				return dep.TamperPEP("tenant-1", &federation.Tamper{
					Enforce: func(xacml.Decision) xacml.Decision { return xacml.Permit },
				})
			},
			func() { _ = dep.TamperPEP("tenant-1", nil) },
			core.AlertEnforcementMismatch,
		)
		if err != nil {
			dep.Close()
			return t, err
		}
		a4, err := runAttack(
			func() error {
				return dep.CompromisePDP(func(inner xacml.Evaluator) xacml.Evaluator { return flipEval{inner: inner} })
			},
			func() { _ = dep.CompromisePDP(nil) },
			core.AlertDecisionIncorrect,
		)
		if err != nil {
			dep.Close()
			return t, err
		}

		// Clean traffic must match (and raise nothing) in both configs.
		req := StandardRequest(dep, 0)
		cleanAlerts := "-"
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := client.Decide(ctx, req); err == nil {
			if err := dep.WaitForMatched(ctx, req.ID); err == nil {
				cleanAlerts = fmt.Sprintf("%d false alerts", len(dep.Monitor.AlertsFor(req.ID)))
			}
		}
		cancel()

		label := "full DRAMS (with analyser)"
		if !withAnalyser {
			label = "ablated (no analyser)"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d/%d", a3, p.Trials),
			fmt.Sprintf("%d/%d", a4, p.Trials),
			cleanAlerts,
		})
		dep.Close()
	}
	return t, nil
}
