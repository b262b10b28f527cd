package attack

import (
	"context"
	"fmt"
	"time"

	"drams"
	"drams/internal/core"
	"drams/internal/federation"
	"drams/internal/metrics"
)

// The campaign fleet: three members — the Byzantine one, an honest one
// with the analyser, and the infrastructure cloud — mining at difficulty 6
// with a Δ-block M3 window and 15 ms empty blocks. Each trial waits at most
// detectTimeout for an alert.
const (
	clouds             = 3
	Difficulty         = 6
	TimeoutBlocks      = 8
	emptyBlockInterval = 15 * time.Millisecond
	detectTimeout      = 45 * time.Second
)

// Campaign drives catalogue scenarios against fresh federations, measuring
// detection as a first-class quantity: per-scenario detection rate,
// latency histograms (wall time and blocks from injection to the first
// matching alert) and false positives. The zero value plus Scenarios works;
// every trial is reproducible under the pinned Seed.
type Campaign struct {
	// Scenarios to run; each gets its own deployment (attack classes need
	// different production modes).
	Scenarios []Scenario
	// Trials per scenario (default 3).
	Trials int
	// Seed pins the deployment and netsim RNGs (default 7).
	Seed uint64
}

// Result aggregates one scenario's trials.
type Result struct {
	Scenario
	Trials   int
	Detected int
	// Granted counts trials whose victim request was enforced as Permit
	// (read for WantPermit scenarios).
	Granted int
	// FalsePositives counts alerts on requests the attack never touched,
	// or of types the attack cannot legitimately cause.
	FalsePositives int
	// WallMillis / Blocks are detection-latency distributions (injection →
	// first matching alert), in milliseconds and chain blocks.
	WallMillis metrics.Summary
	Blocks     metrics.Summary
	// Alerts is every alert the scenario's fleet raised, as scanned for
	// false positives.
	Alerts []core.Alert
	// Err records an injection failure (the scenario's remaining trials
	// are skipped).
	Err string
}

// ControlResult is the clean request a campaign sends on its first fleet.
type ControlResult struct {
	Enforced drams.Enforcement
	// Err is the decide error, or the wait for the on-chain match's.
	Err error
	// Alerts lists the alerts raised for the request.
	Alerts []core.Alert
}

// CampaignReport is the campaign outcome. Forgery (A8, an outsider's
// forged record) and Control run once, on the first scenario's fleet after
// its trials.
type CampaignReport struct {
	Seed    uint64
	Results []Result
	Forgery ForgeLogResult
	Control ControlResult
}

// Run executes the campaign.
func (c Campaign) Run() (*CampaignReport, error) {
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	rep := &CampaignReport{Seed: c.Seed}
	for i, sc := range c.Scenarios {
		res, err := c.runScenario(sc, rep, i == 0)
		if err != nil {
			return nil, fmt.Errorf("attack: campaign scenario %s: %w", sc.ID, err)
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// runScenario builds a fresh federation in the production mode the scenario
// needs and runs its trials; on the first fleet it also runs the report's
// forgery and control.
func (c Campaign) runScenario(sc Scenario, rep *CampaignReport, first bool) (Result, error) {
	opts := []drams.Option{
		drams.WithTopology(federation.SimpleTopology("chaos", clouds)),
		drams.WithDifficulty(Difficulty),
		drams.WithTimeoutBlocks(TimeoutBlocks),
		drams.WithEmptyBlockInterval(emptyBlockInterval),
		drams.WithSeed(c.Seed),
	}
	if sc.MineAll {
		opts = append(opts, drams.WithMineAll())
	}
	dep, err := drams.Open(ChaosPolicy(), opts...)
	if err != nil {
		return Result{}, err
	}
	defer dep.Close()

	h, err := c.harness(dep, sc)
	if err != nil {
		return Result{}, err
	}

	res := Result{Scenario: sc, Trials: c.Trials}
	wall, blocks := metrics.NewHistogram(), metrics.NewHistogram()
	injected := map[string]bool{}
	for t := 0; t < c.Trials; t++ {
		ctx, cancel := context.WithTimeout(context.Background(), detectTimeout)
		inj, err := sc.Run(ctx, h)
		if err != nil {
			res.Err = err.Error()
			cancel()
			break
		}
		for _, id := range inj.ReqIDs {
			injected[id] = true
		}
		if inj.Enforced.Permitted() {
			res.Granted++
		}
		if a, ok := waitAnyAlert(ctx, dep, inj.VictimReqID, sc.Expected); ok {
			res.Detected++
			wall.Observe(float64(time.Since(inj.At)) / float64(time.Millisecond))
			if a.Height >= inj.Height {
				blocks.Observe(float64(a.Height - inj.Height))
			} else {
				blocks.Observe(0)
			}
		}
		if inj.Cleanup != nil {
			inj.Cleanup()
		}
		cancel()
	}
	if first {
		rep.Forgery = AttemptLogForgery(dep.InfraNode(), "forged-req-1")
		rep.Control = control(h)
	}

	// Let every deadline the trials armed come due before the
	// false-positive scan: a record anchored by now arms its M3 and verdict
	// deadlines at most Δ blocks on.
	settle(dep, TimeoutBlocks+2)
	expType := make(map[core.AlertType]bool, len(sc.Expected))
	for _, t := range sc.Expected {
		expType[t] = true
	}
	res.Alerts = dep.Monitor.Alerts()
	for _, a := range res.Alerts {
		if !injected[a.ReqID] || !expType[a.Type] {
			res.FalsePositives++
		}
	}
	res.WallMillis = wall.Snapshot()
	res.Blocks = blocks.Snapshot()
	return res, nil
}

// control sends one clean request from the victim tenant and waits for its
// records to match on-chain.
func control(h *Harness) ControlResult {
	ctx, cancel := context.WithTimeout(context.Background(), detectTimeout)
	defer cancel()
	req := ChaosRequest(h.Dep)
	var out ControlResult
	out.Enforced, out.Err = h.Client.Decide(ctx, req)
	if out.Err == nil {
		out.Err = h.Dep.WaitForMatched(ctx, req.ID)
	}
	out.Alerts = h.Dep.Monitor.AlertsFor(req.ID)
	return out
}

// harness wires the Byzantine wrapper, victim choice and adversary endpoint
// for one scenario.
func (c Campaign) harness(dep *drams.Deployment, sc Scenario) (*Harness, error) {
	topo := dep.Topology()
	infra, err := topo.InfrastructureTenant()
	if err != nil {
		return nil, err
	}
	edge := topo.EdgeTenants()
	if len(edge) == 0 {
		return nil, fmt.Errorf("attack: campaign needs edge tenants")
	}
	// The Byzantine member defaults to the last cloud — away from both the
	// infrastructure node (the monitor's view) and the first non-infra
	// cloud (the analyser's) — unless the scenario needs mining control,
	// which the designated producer holds.
	byzTen := edge[len(edge)-1]
	byzCloud := byzTen.Cloud
	if sc.ByzProducer {
		byzCloud = infra.Cloud
	}
	victim := ""
	for _, t := range edge {
		if sc.VictimOnByzCloud == (t.Cloud == byzCloud) {
			victim = t.Name
			break
		}
	}
	if victim == "" {
		victim = edge[0].Name
	}
	client, err := dep.Client(victim)
	if err != nil {
		return nil, err
	}
	byzNode, err := dep.Node(byzCloud)
	if err != nil {
		return nil, err
	}
	ep, err := dep.Transport.Register("adversary@" + sc.ID)
	if err != nil {
		return nil, err
	}
	return &Harness{
		Dep:       dep,
		Seed:      c.Seed,
		Victim:    victim,
		Client:    client,
		Byz:       Byzantine(byzNode),
		ByzTenant: byzTen.Name,
		Adversary: ep,
	}, nil
}

// settle waits until the monitor's chain view is n blocks past its
// current head, or detectTimeout passes.
func settle(dep *drams.Deployment, n uint64) {
	view := dep.InfraNode().Chain()
	heads, cancel := view.SubscribeHead()
	defer cancel()
	_, target := view.Head()
	target += n
	timeout := time.After(detectTimeout)
	for {
		if _, h := view.Head(); h >= target {
			return
		}
		select {
		case <-heads:
		case <-timeout:
			return
		}
	}
}

// waitAnyAlert blocks until any of the expected alert types fires for
// reqID, or ctx ends.
func waitAnyAlert(ctx context.Context, dep *drams.Deployment, reqID string, types []core.AlertType) (core.Alert, bool) {
	ch, cancel := dep.Monitor.Subscribe(ctx, core.AlertFilter{ReqID: reqID, Types: types, Replay: true, Buffer: 1})
	defer cancel()
	a, ok := <-ch
	return a, ok
}
