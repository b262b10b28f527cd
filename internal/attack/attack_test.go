package attack

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"drams"
	"drams/internal/core"
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

// Detection-depth ceilings of TestDetectionLatencyBounds, in blocks from
// the head at injection to the block whose OnBlock raised the alert. A
// tamper-class alert fires when the exchange's records anchor; an M3 alert
// fires in the block of height h + Δ, h the first record's height, which is
// at least one above the injection head. Measured on this fleet over 40
// runs plus 10 under -race (2 cores): A1–A3 1–4, A4 3–6 (it waits for the
// analyser's verdict), A5 1–2, A5b 2–4, A6/A7 Δ + 1 in all 50.
const (
	catalogueTimeoutBlocks = 10
	tamperDepthCeiling     = 8
	suppressDepthCeiling   = catalogueTimeoutBlocks + 2
)

// catalogueRow is what one §I scenario did on the catalogue fleet.
type catalogueRow struct {
	sc           Scenario
	installErr   error
	enf          drams.Enforcement
	decideErr    error
	injectHeight uint64
	alert        core.Alert
	detected     bool
	saw          []core.Alert
}

// catalogueRun is one pass of the §I threat catalogue over one fleet
// (Δ = 10, seed 21): A1–A7 in turn, then A8's outsider forgery, then a
// clean control request.
type catalogueRun struct {
	rows    []catalogueRow
	forgery ForgeLogResult

	controlEnf      drams.Enforcement
	controlErr      error
	controlMatchErr error
	controlAlerts   []core.Alert
}

func runCatalogue() (*catalogueRun, error) {
	dep, err := drams.Open(detectPolicy(),
		drams.WithDifficulty(6),
		drams.WithTimeoutBlocks(catalogueTimeoutBlocks),
		drams.WithEmptyBlockInterval(15*time.Millisecond),
		drams.WithSeed(21),
	)
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	client, err := dep.Client("tenant-1")
	if err != nil {
		return nil, err
	}

	run := &catalogueRun{}
	for _, sc := range Catalogue(escalateToDoctor) {
		run.rows = append(run.rows, runScenario(dep, client, sc))
	}
	run.forgery = AttemptLogForgery(dep.InfraNode(), "forged-req-1")

	req := dep.NewRequest().Add(xacml.CatSubject, "role", xacml.String("doctor"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	run.controlEnf, run.controlErr = client.Decide(ctx, req)
	if run.controlErr == nil {
		run.controlMatchErr = dep.WaitForMatched(ctx, req.ID)
	}
	run.controlAlerts = dep.Monitor.AlertsFor(req.ID)
	return run, nil
}

func runScenario(dep *drams.Deployment, client *drams.Client, sc Scenario) catalogueRow {
	row := catalogueRow{sc: sc}
	cleanup, err := sc.Install(dep, "tenant-1")
	if err != nil {
		row.installErr = err
		return row
	}
	defer cleanup()

	_, row.injectHeight = dep.InfraNode().Chain().Head()
	req := dep.NewRequest().Add(xacml.CatSubject, "role", xacml.String("intern"))
	row.enf, row.decideErr = client.Decide(context.Background(), req) // drop-class attacks fail the call by design

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	row.alert, row.detected = waitAnyAlert(ctx, dep, req.ID, sc.Expected)
	row.saw = dep.Monitor.AlertsFor(req.ID)
	return row
}

// sharedCatalogue hands one catalogue run to the two tests that read it:
// TestCatalogueDetectionMatrix asserts what each attack did and that it was
// detected, TestDetectionLatencyBounds how many blocks detection took. A
// test that has already read the stored run gets a fresh one, so -count=N
// opens N fleets whichever of the two tests it selects.
var sharedCatalogue struct {
	mu   sync.Mutex
	run  *catalogueRun
	read map[string]bool
}

func catalogueResults(t *testing.T) *catalogueRun {
	t.Helper()
	s := &sharedCatalogue
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run == nil || s.read[t.Name()] {
		run, err := runCatalogue()
		if err != nil {
			t.Fatal(err)
		}
		s.run, s.read = run, map[string]bool{}
	}
	s.read[t.Name()] = true
	return s.run
}

// TestCatalogueDetectionMatrix is the §I threat catalogue, the tier-1 form
// of experiment E5. Each attack row asserts that the attack reached its
// goal and that one of its expected alerts fired; the A8 row asserts that
// an outsider's forged record is refused at the chain boundary, and the
// control row that a clean request matches with no alert. go test -v
// prints the matrix.
func TestCatalogueDetectionMatrix(t *testing.T) {
	run := catalogueResults(t)
	for _, row := range run.rows {
		sc := row.sc
		t.Run(sc.ID+"_"+sc.Name, func(t *testing.T) {
			if row.installErr != nil {
				t.Fatal(row.installErr)
			}
			if sc.WantPermit && (row.decideErr != nil || !row.enf.Permitted()) {
				t.Fatalf("%s: attack did not reach its goal (decision %s, err %v)", sc.ID, row.enf.Decision, row.decideErr)
			}
			if !row.detected {
				t.Fatalf("%s: none of the expected alerts %v fired; saw %v", sc.ID, sc.Expected, row.saw)
			}
			t.Logf("%-4s %-38s %s", sc.ID, sc.Name, row.alert.Type)
		})
	}

	t.Run("A8_log_forgery", func(t *testing.T) {
		t.Logf("%-4s %-38s rejected %v", "A8", "log forgery (outsider)", run.forgery.Rejected)
		if !run.forgery.Rejected {
			t.Fatalf("forged log accepted: %v", run.forgery.Err)
		}
	})

	t.Run("control", func(t *testing.T) {
		if run.controlErr != nil || !run.controlEnf.Permitted() {
			t.Fatalf("clean request: %v %v", run.controlEnf, run.controlErr)
		}
		if run.controlMatchErr != nil {
			t.Fatalf("clean request never matched: %v", run.controlMatchErr)
		}
		t.Logf("%-4s %-38s matched, %d alerts", "-", "control (no attack)", len(run.controlAlerts))
		if len(run.controlAlerts) != 0 {
			t.Fatalf("clean request raised %v", run.controlAlerts)
		}
	})
}

// TestDetectionLatencyBounds bounds how many blocks each catalogue scenario
// took from injection to alert on the catalogue fleet: tamper-class attacks
// are caught as soon as the records anchor; suppression-class attacks
// additionally wait out the Δ-block M3 window.
func TestDetectionLatencyBounds(t *testing.T) {
	run := catalogueResults(t)
	for _, row := range run.rows {
		sc := row.sc
		t.Run(sc.ID+"_"+sc.Name, func(t *testing.T) {
			if row.installErr != nil {
				t.Fatal(row.installErr)
			}
			if !row.detected {
				t.Fatalf("%s: no alert within deadline; saw %v", sc.ID, row.saw)
			}
			ceiling := uint64(tamperDepthCeiling)
			for _, want := range sc.Expected {
				if want == core.AlertMessageSuppressed || want == core.AlertVerdictMissing {
					ceiling = suppressDepthCeiling
				}
			}
			depth := row.alert.Height - row.injectHeight
			t.Logf("%-4s %-38s %-24s depth %2d (ceiling %d)", sc.ID, sc.Name, row.alert.Type, depth, ceiling)
			if depth > ceiling {
				t.Fatalf("%s: detection took %d blocks (inject height %d, alert height %d), ceiling %d",
					sc.ID, depth, row.injectHeight, row.alert.Height, ceiling)
			}
		})
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
