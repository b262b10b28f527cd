package attack

import (
	"context"
	"math"
	"testing"
	"time"

	"drams"
	"drams/internal/idgen"
	"drams/internal/xacml"
)

func detectPolicy() *xacml.PolicySet {
	doctorRead := &xacml.Rule{
		ID:     "doctor-read",
		Effect: xacml.EffectPermit,
		Target: xacml.Target{AnyOf: []xacml.AnyOf{{AllOf: []xacml.AllOf{{Matches: []xacml.Match{
			{Op: xacml.CmpEq, Attr: xacml.Designator{Cat: xacml.CatSubject, ID: "role"}, Lit: xacml.String("doctor")},
		}}}}}},
	}
	deny := &xacml.Rule{ID: "default-deny", Effect: xacml.EffectDeny}
	return &xacml.PolicySet{ID: "root", Version: "v1", Alg: xacml.DenyUnlessPermit,
		Items: []xacml.PolicyItem{{Policy: &xacml.Policy{ID: "p", Version: "1",
			Alg: xacml.FirstApplicable, Rules: []*xacml.Rule{doctorRead, deny}}}}}
}

func escalateToDoctor(req *xacml.Request) *xacml.Request {
	out := xacml.NewRequest(req.ID)
	out.Add(xacml.CatSubject, "role", xacml.String("doctor"))
	return out
}

// TestCatalogueDetectionMatrix is the executable form of experiment E5:
// every scenario must raise (at least) one of its expected alerts.
func TestCatalogueDetectionMatrix(t *testing.T) {
	dep, err := drams.Open(detectPolicy(),
		drams.WithDifficulty(6),
		drams.WithTimeoutBlocks(20),
		drams.WithEmptyBlockInterval(15*time.Millisecond),
		drams.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}

	for _, sc := range Catalogue(escalateToDoctor) {
		sc := sc
		t.Run(sc.ID+"_"+sc.Name, func(t *testing.T) {
			cleanup, err := sc.Install(dep, "tenant-1")
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()

			req := dep.NewRequest().Add(xacml.CatSubject, "role", xacml.String("intern"))
			enf, reqErr := client.Decide(context.Background(), req)
			if sc.WantPermit && reqErr == nil && !enf.Permitted() {
				t.Fatalf("%s: attack did not achieve its goal (decision %s)", sc.ID, enf.Decision)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			type res struct {
				ok  bool
				err error
			}
			got := make(chan res, len(sc.Expected))
			for _, want := range sc.Expected {
				want := want
				go func() {
					_, err := dep.WaitForAlert(ctx, req.ID, want)
					got <- res{ok: err == nil, err: err}
				}()
			}
			for range sc.Expected {
				r := <-got
				if r.ok {
					cancel()
					return // detected
				}
			}
			t.Fatalf("%s: none of the expected alerts %v fired; saw %v",
				sc.ID, sc.Expected, dep.Monitor.AlertsFor(req.ID))
		})
	}
}

func TestLogForgeryRejected(t *testing.T) {
	dep, err := drams.Open(detectPolicy(),
		drams.WithDifficulty(6),
		drams.WithTimeoutBlocks(20),
		drams.WithEmptyBlockInterval(15*time.Millisecond),
		drams.WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	res := AttemptLogForgery(dep.InfraNode(), "forged-req-1")
	if !res.Rejected {
		t.Fatalf("forged log accepted: %v", res.Err)
	}
}

func TestRewriteProbabilityAnalytic(t *testing.T) {
	// Monotone in attacker share.
	if RewriteProbability(0.1, 6) >= RewriteProbability(0.3, 6) {
		t.Fatal("P should grow with attacker share")
	}
	// Monotone (non-increasing) in confirmation depth.
	for z := 1; z < 10; z++ {
		if RewriteProbability(0.3, z+1) > RewriteProbability(0.3, z)+1e-12 {
			t.Fatalf("P should fall with depth: z=%d", z)
		}
	}
	// Majority attacker always wins.
	if RewriteProbability(0.5, 6) != 1 || RewriteProbability(0.7, 3) != 1 {
		t.Fatal("majority attacker must win")
	}
	// Known reference value from the Bitcoin paper: q=0.1, z=5 → ~0.0009.
	got := RewriteProbability(0.1, 5)
	if math.Abs(got-0.0009137) > 2e-4 {
		t.Fatalf("q=0.1 z=5: got %v, want ≈0.0009", got)
	}
	// Probabilities stay in [0,1].
	for _, q := range []float64{0.05, 0.2, 0.45} {
		for z := 0; z < 12; z++ {
			p := RewriteProbability(q, z)
			if p < 0 || p > 1 {
				t.Fatalf("P(q=%v,z=%d) = %v out of range", q, z, p)
			}
		}
	}
}

// simulateRewriteRace estimates the rewrite probability by Monte Carlo on
// the actual two-phase race: (1) while the honest chain accumulates the z
// confirmation blocks, the attacker mines privately — each block in this
// period is the attacker's with probability q; (2) from the resulting
// deficit the race continues as a random walk, and the attacker wins on
// reaching parity (he then publishes the longer secret branch). A deficit
// beyond z+80 is counted as a loss (the win probability from there is
// below (q/p)^80). The analytic formula approximates phase 1 with a
// Poisson; the exact race simulated here differs from it by well under a
// percentage point for practical parameters.
func simulateRewriteRace(q float64, z int, trials int, seed uint64) float64 {
	if trials <= 0 {
		trials = 1000
	}
	if q >= 0.5 {
		return 1
	}
	rng := idgen.NewRand(seed)
	wins := 0
	for t := 0; t < trials; t++ {
		// Phase 1: attacker head start while z honest blocks confirm.
		attacker := 0
		for honest := 0; honest < z; {
			if rng.Float64() < q {
				attacker++
			} else {
				honest++
			}
		}
		deficit := z - attacker
		if deficit <= 0 {
			wins++
			continue
		}
		// Phase 2: gambler's ruin from the remaining deficit.
		for deficit > 0 && deficit <= z+80 {
			if rng.Float64() < q {
				deficit--
			} else {
				deficit++
			}
		}
		if deficit <= 0 {
			wins++
		}
	}
	return float64(wins) / float64(trials)
}

func TestSimulationMatchesAnalytic(t *testing.T) {
	for _, c := range []struct {
		q float64
		z int
	}{{0.1, 2}, {0.2, 3}, {0.3, 4}} {
		analytic := RewriteProbability(c.q, c.z)
		sim := simulateRewriteRace(c.q, c.z, 20000, 11)
		// The analytic form uses Nakamoto's Poisson approximation of the
		// head-start phase; the simulation runs the exact race, so allow a
		// small modelling + sampling margin.
		if math.Abs(analytic-sim) > 0.03 {
			t.Errorf("q=%v z=%d: analytic %v vs sim %v", c.q, c.z, analytic, sim)
		}
	}
}

func TestCatalogueShape(t *testing.T) {
	cat := Catalogue(escalateToDoctor)
	if len(cat) != 8 {
		t.Fatalf("catalogue size = %d, want 8", len(cat))
	}
	seen := map[string]bool{}
	for _, sc := range cat {
		if sc.ID == "" || sc.Name == "" || sc.Description == "" || len(sc.Expected) == 0 {
			t.Errorf("scenario %q incomplete", sc.ID)
		}
		if seen[sc.ID] {
			t.Errorf("duplicate scenario id %q", sc.ID)
		}
		seen[sc.ID] = true
	}
	// A1 without an escalation function must fail to install.
	noEsc := Catalogue(nil)
	dep := (*drams.Deployment)(nil)
	_ = dep
	if _, err := noEsc[0].Install(nil, "x"); err == nil {
		t.Error("A1 without escalation should error")
	}
}
