package attack

import (
	"context"
	"fmt"
	"time"

	"drams"
	"drams/internal/blockchain"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/federation"
	"drams/internal/metrics"
	"drams/internal/transport"
	"drams/internal/xacml"
)

// Attack classes of the chaos catalogue. Each maps to the monitor check
// that must catch it (ARCHITECTURE §9).
const (
	ClassWithholding  = "withholding"
	ClassEquivocation = "equivocation"
	ClassCensorship   = "censorship"
	ClassOrdering     = "ordering"
	ClassSuppression  = "suppression"
)

// ChaosInjection describes one injected attack instance: what to watch for
// detection and how to undo the attack.
type ChaosInjection struct {
	// VictimReqID is the request whose detection latency is measured.
	VictimReqID string
	// ReqIDs lists every request the attack legitimately disturbs; alerts
	// on any other request (or of an unexpected type) count as false
	// positives.
	ReqIDs []string
	// At and Height timestamp the injection (wall clock; chain height as
	// the monitor's node saw it).
	At     time.Time
	Height uint64
	// Cleanup removes the attack (nil when nothing is left installed).
	Cleanup func()
}

// ChaosHarness hands a scenario the handles it needs on a live deployment.
type ChaosHarness struct {
	// Dep is the federation under attack.
	Dep *drams.Deployment
	// Seed is the deployment seed (identities are re-derivable from it —
	// a Byzantine member knows its own keys).
	Seed uint64
	// Victim is the tenant whose requests the attack targets.
	Victim string
	// Client submits the victim tenant's requests.
	Client *drams.Client
	// Byz wraps the Byzantine member's chain node.
	Byz *ByzantineNode
	// ByzTenant is the tenant hosted on the Byzantine member's cloud; its
	// LI identity is the member's own signing material.
	ByzTenant string
	// Adversary is a raw transport endpoint for targeted block/tx
	// delivery, registered outside the chain peer set.
	Adversary transport.Endpoint
}

// LIIdentity re-derives a tenant's Logging Interface identity from the
// federation seed — the key material a Byzantine member legitimately holds
// for its own hosted tenants.
func (h *ChaosHarness) LIIdentity(tenant string) *crypto.Identity {
	return crypto.NewIdentityFromSeed("li@"+tenant, federation.IdentitySeed(h.Seed, "li@"+tenant))
}

// NodeNames lists every chain node address of the deployment, in topology
// order.
func (h *ChaosHarness) NodeNames() []string {
	var names []string
	for _, c := range h.Dep.Topology().Clouds {
		names = append(names, "node@"+c.Name)
	}
	return names
}

// ChaosScenario is one Byzantine-member / network-chaos attack the campaign
// runner can drive against a fresh federation.
type ChaosScenario struct {
	// Class is the attack class (ClassWithholding, ...).
	Class string
	// Name is a short label.
	Name string
	// Description explains the attack in operator terms.
	Description string
	// Expected lists the alert types that count as detection (any one
	// suffices).
	Expected []core.AlertType
	// MineAll selects the chain production mode the scenario needs: true
	// lets every member mine (withholding needs the Byzantine member to
	// genuinely produce blocks it then suppresses).
	MineAll bool
	// ByzProducer puts the Byzantine wrapper on the designated block
	// producer (censorship and anchoring delay need mining control).
	ByzProducer bool
	// VictimOnByzCloud co-locates the victim tenant with the Byzantine
	// node (withholding traps the victim's records on the member's node).
	VictimOnByzCloud bool
	// Run injects the attack once and reports what was injected.
	Run func(ctx context.Context, h *ChaosHarness) (*ChaosInjection, error)
}

// ChaosPolicy is the access policy chaos scenarios run under: doctors may
// read records, everyone else is denied.
func ChaosPolicy() *xacml.PolicySet {
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

// ChaosRequest builds a Permit-outcome request under ChaosPolicy.
func ChaosRequest(dep *drams.Deployment) *xacml.Request {
	return dep.NewRequest().Add(xacml.CatSubject, "role", xacml.String("doctor"))
}

// ChaosDenyRequest builds a Deny-outcome request under ChaosPolicy.
func ChaosDenyRequest(dep *drams.Deployment) *xacml.Request {
	return dep.NewRequest().Add(xacml.CatSubject, "role", xacml.String("intern"))
}

// ChaosCatalogue returns the Byzantine-member attack fleet: one scenario
// per attack class, each annotated with the monitor check expected to
// catch it.
func ChaosCatalogue() []ChaosScenario {
	return []ChaosScenario{
		{
			Class:            ClassWithholding,
			Name:             "block withholding by the victim's member",
			Description:      "the member hosting the victim mines normally but suppresses all outbound block/tx gossip, trapping the victim's probe logs; the honest side's M3 deadline flags the gap",
			Expected:         []core.AlertType{core.AlertMessageSuppressed},
			MineAll:          true,
			VictimOnByzCloud: true,
			Run: func(ctx context.Context, h *ChaosHarness) (*ChaosInjection, error) {
				h.Byz.WithholdGossip()
				at := time.Now()
				_, height := h.Dep.InfraNode().Chain().Head()
				req := ChaosRequest(h.Dep)
				if _, err := h.Client.Decide(ctx, req); err != nil {
					h.Byz.ReleaseGossip()
					return nil, fmt.Errorf("attack: withholding victim request: %w", err)
				}
				return &ChaosInjection{
					VictimReqID: req.ID, ReqIDs: []string{req.ID},
					At: at, Height: height, Cleanup: h.Byz.ReleaseGossip,
				}, nil
			},
		},
		{
			Class:       ClassEquivocation,
			Name:        "double-mined siblings with a conflicting record",
			Description: "after a clean exchange, the member mines two sibling blocks at the same height for different peer subsets, one carrying a forged conflicting pep.request for the victim's request; executing it raises AlertEquivocation",
			Expected:    []core.AlertType{core.AlertEquivocation},
			Run: func(ctx context.Context, h *ChaosHarness) (*ChaosInjection, error) {
				req := ChaosRequest(h.Dep)
				if _, err := h.Client.Decide(ctx, req); err != nil {
					return nil, fmt.Errorf("attack: equivocation victim request: %w", err)
				}
				// Precondition: the honest records are on-chain, so the
				// forged record is the conflicting second write.
				if err := h.Dep.WaitForMatched(ctx, req.ID); err != nil {
					return nil, fmt.Errorf("attack: equivocation precondition: %w", err)
				}
				view := h.Dep.InfraNode().Chain()
				forged, err := ForgeConflictingRecord(view, h.LIIdentity(h.ByzTenant), h.Victim, req.ID)
				if err != nil {
					return nil, err
				}
				at := time.Now()
				_, height := view.Head()
				b1, b2, err := DoubleMine(ctx, view, h.Byz.Node().Name(),
					[]blockchain.Transaction{forged}, nil)
				if err != nil {
					return nil, err
				}
				names := h.NodeNames()
				half := (len(names) + 1) / 2
				DeliverBlock(h.Adversary, b1, names[:half]...)
				DeliverBlock(h.Adversary, b2, names[half:]...)
				// The loose tx guarantees the conflicting record executes
				// even when the sibling carrying it loses the fork race.
				DeliverTx(h.Adversary, forged, names...)
				return &ChaosInjection{
					VictimReqID: req.ID, ReqIDs: []string{req.ID},
					At: at, Height: height,
				}, nil
			},
		},
		{
			Class:       ClassCensorship,
			Name:        "producer censors the victim's probe logs",
			Description: "the designated block producer drops every transaction from the victim tenant's LI; the pdp-side records still anchor, arm the M3 deadline and expose the censored half",
			Expected:    []core.AlertType{core.AlertMessageSuppressed},
			ByzProducer: true,
			Run: func(ctx context.Context, h *ChaosHarness) (*ChaosInjection, error) {
				h.Byz.CensorSenders("li@" + h.Victim)
				at := time.Now()
				_, height := h.Dep.InfraNode().Chain().Head()
				req := ChaosRequest(h.Dep)
				if _, err := h.Client.Decide(ctx, req); err != nil {
					h.Byz.LiftCensorship()
					return nil, fmt.Errorf("attack: censorship victim request: %w", err)
				}
				return &ChaosInjection{
					VictimReqID: req.ID, ReqIDs: []string{req.ID},
					At: at, Height: height, Cleanup: h.Byz.LiftCensorship,
				}, nil
			},
		},
		{
			Class:       ClassOrdering,
			Name:        "batch pipeline reordered at the PEP/PDP seam",
			Description: "a mixed-outcome DecideBatch pipeline is reversed on the wire after the probes logged the honest order, so every request is enforced with another request's decision; M2 flags the misaligned digests",
			Expected:    []core.AlertType{core.AlertResponseTampered},
			Run: func(ctx context.Context, h *ChaosHarness) (*ChaosInjection, error) {
				if err := h.Dep.TamperPEP(h.Victim, &federation.Tamper{Batch: ReverseBatch()}); err != nil {
					return nil, err
				}
				cleanup := func() { _ = h.Dep.TamperPEP(h.Victim, nil) }
				at := time.Now()
				_, height := h.Dep.InfraNode().Chain().Head()
				permit, deny := ChaosRequest(h.Dep), ChaosDenyRequest(h.Dep)
				if _, err := h.Client.DecideBatch(ctx, []*xacml.Request{permit, deny}); err != nil {
					cleanup()
					return nil, fmt.Errorf("attack: ordering batch: %w", err)
				}
				return &ChaosInjection{
					VictimReqID: permit.ID, ReqIDs: []string{permit.ID, deny.ID},
					At: at, Height: height, Cleanup: cleanup,
				}, nil
			},
		},
		{
			Class:       ClassSuppression,
			Name:        "anchoring delayed past the M3 window",
			Description: "the producer holds the victim's pep.response record in its mempool past the Δ-block deadline, then releases it; the record anchors late but the alert already stands",
			Expected:    []core.AlertType{core.AlertMessageSuppressed},
			ByzProducer: true,
			Run: func(ctx context.Context, h *ChaosHarness) (*ChaosInjection, error) {
				req := ChaosRequest(h.Dep)
				h.Byz.DelayRecords(HoldRecords(core.KindPEPResponse, req.ID))
				at := time.Now()
				_, height := h.Dep.InfraNode().Chain().Head()
				if _, err := h.Client.Decide(ctx, req); err != nil {
					h.Byz.LiftCensorship()
					return nil, fmt.Errorf("attack: suppression victim request: %w", err)
				}
				return &ChaosInjection{
					VictimReqID: req.ID, ReqIDs: []string{req.ID},
					At: at, Height: height, Cleanup: h.Byz.LiftCensorship,
				}, nil
			},
		},
	}
}

// Campaign drives a chaos-scenario fleet against fresh federations,
// measuring detection as a first-class quantity: per-class detection rate,
// latency histograms (wall time and blocks from injection to the first
// matching alert) and false positives. The zero value plus Scenarios works;
// every trial is reproducible under the pinned Seed.
type Campaign struct {
	// Scenarios to run; each gets its own deployment (attack classes need
	// different production modes).
	Scenarios []ChaosScenario
	// Trials per scenario (default 3).
	Trials int
	// Seed pins the deployment and netsim RNGs (default 7).
	Seed uint64
	// Clouds sizes the federation (default 3 — Byzantine member, honest
	// member with the analyser, and the infrastructure cloud).
	Clouds int
	// Difficulty / TimeoutBlocks / EmptyBlockInterval shape the chain
	// (defaults 6 bits, Δ=8 blocks, 15ms).
	Difficulty         uint8
	TimeoutBlocks      uint64
	EmptyBlockInterval time.Duration
	// DetectTimeout bounds each trial's wait for an alert (default 45s).
	DetectTimeout time.Duration
}

// ClassResult aggregates one scenario's trials.
type ClassResult struct {
	Class    string
	Name     string
	Expected []core.AlertType
	Trials   int
	Detected int
	// FalsePositives counts alerts on requests the attack never touched,
	// or of types the attack cannot legitimately cause.
	FalsePositives int
	// WallMillis / Blocks are detection-latency distributions (injection →
	// first matching alert), in milliseconds and chain blocks.
	WallMillis metrics.Summary
	Blocks     metrics.Summary
	// Err records an injection failure (the scenario's remaining trials
	// are skipped).
	Err string
}

// CampaignReport is the campaign outcome.
type CampaignReport struct {
	Seed    uint64
	Results []ClassResult
}

func (c Campaign) withDefaults() Campaign {
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Clouds <= 0 {
		c.Clouds = 3
	}
	if c.Difficulty == 0 {
		c.Difficulty = 6
	}
	if c.TimeoutBlocks == 0 {
		c.TimeoutBlocks = 8
	}
	if c.EmptyBlockInterval == 0 {
		c.EmptyBlockInterval = 15 * time.Millisecond
	}
	if c.DetectTimeout == 0 {
		c.DetectTimeout = 45 * time.Second
	}
	return c
}

// Run executes the campaign.
func (c Campaign) Run() (*CampaignReport, error) {
	c = c.withDefaults()
	rep := &CampaignReport{Seed: c.Seed}
	for _, sc := range c.Scenarios {
		res, err := c.runScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("attack: campaign scenario %s: %w", sc.Class, err)
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// runScenario builds a fresh federation in the production mode the scenario
// needs and runs its trials.
func (c Campaign) runScenario(sc ChaosScenario) (ClassResult, error) {
	opts := []drams.Option{
		drams.WithTopology(federation.SimpleTopology("chaos", c.Clouds)),
		drams.WithDifficulty(c.Difficulty),
		drams.WithTimeoutBlocks(c.TimeoutBlocks),
		drams.WithEmptyBlockInterval(c.EmptyBlockInterval),
		drams.WithSeed(c.Seed),
	}
	if sc.MineAll {
		opts = append(opts, drams.WithMineAll())
	}
	dep, err := drams.Open(ChaosPolicy(), opts...)
	if err != nil {
		return ClassResult{}, err
	}
	defer dep.Close()

	h, err := c.harness(dep, sc)
	if err != nil {
		return ClassResult{}, err
	}

	res := ClassResult{Class: sc.Class, Name: sc.Name, Expected: sc.Expected, Trials: c.Trials}
	wall, blocks := metrics.NewHistogram(), metrics.NewHistogram()
	injected := map[string]bool{}
	for t := 0; t < c.Trials; t++ {
		ctx, cancel := context.WithTimeout(context.Background(), c.DetectTimeout)
		inj, err := sc.Run(ctx, h)
		if err != nil {
			res.Err = err.Error()
			cancel()
			break
		}
		for _, id := range inj.ReqIDs {
			injected[id] = true
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

	// Let released records and straggler alerts land before the
	// false-positive scan.
	time.Sleep(250 * time.Millisecond)
	expType := make(map[core.AlertType]bool, len(sc.Expected))
	for _, t := range sc.Expected {
		expType[t] = true
	}
	for _, a := range dep.Monitor.Alerts() {
		if !injected[a.ReqID] || !expType[a.Type] {
			res.FalsePositives++
		}
	}
	res.WallMillis = wall.Snapshot()
	res.Blocks = blocks.Snapshot()
	return res, nil
}

// harness wires the Byzantine wrapper, victim choice and adversary endpoint
// for one scenario.
func (c Campaign) harness(dep *drams.Deployment, sc ChaosScenario) (*ChaosHarness, error) {
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
	ep, err := dep.Transport.Register("adversary@" + sc.Class)
	if err != nil {
		return nil, err
	}
	return &ChaosHarness{
		Dep:       dep,
		Seed:      c.Seed,
		Victim:    victim,
		Client:    client,
		Byz:       Byzantine(byzNode),
		ByzTenant: byzTen.Name,
		Adversary: ep,
	}, nil
}

// waitAnyAlert blocks until any of the expected alert types fires for reqID.
func waitAnyAlert(ctx context.Context, dep *drams.Deployment, reqID string, types []core.AlertType) (core.Alert, bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan core.Alert, len(types))
	for _, t := range types {
		go func(t core.AlertType) {
			if a, err := dep.Monitor.WaitForAlert(ctx, reqID, t); err == nil {
				ch <- a
			}
		}(t)
	}
	select {
	case a := <-ch:
		return a, true
	case <-ctx.Done():
		return core.Alert{}, false
	}
}
