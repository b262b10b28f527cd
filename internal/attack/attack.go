// Package attack implements the threat model of the paper's §I ("it is
// possible that the components are compromised so that access requests or
// responses are modified, or the policies and the evaluation process are
// altered by a malicious user or software to gain unauthorised access") as
// one executable catalogue of attack scenarios, plus the chain-level
// analyses (log forgery, history rewriting) used by experiments E3 and V7.
//
// Each Scenario knows how to inject itself into a running federation and
// which alert types the monitor must raise; Campaign runs the catalogue
// and measures detection against that ground truth.
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
	"drams/internal/transport"
	"drams/internal/xacml"
)

// Scenario is one executable attack of the threat catalogue.
type Scenario struct {
	// ID names the attack in docs/ARCHITECTURE.md §9: A1…A7 and A5b for the
	// §I tamper attacks, the class name for a member-level attack.
	ID string
	// Name is a short label.
	Name string
	// Description explains the attack in operator terms.
	Description string
	// Expected lists the alert types that count as detection (any one
	// suffices).
	Expected []core.AlertType
	// WantPermit marks an attack whose goal is a wrongly granted access:
	// its victim request must be enforced as Permit.
	WantPermit bool
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
	Run func(ctx context.Context, h *Harness) (*Injection, error)
}

// Injection describes one injected attack instance: what to watch for
// detection and how to undo the attack.
type Injection struct {
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
	// Enforced is what the victim's PEP enforced for VictimReqID, recorded
	// by the scenarios whose WantPermit reads it.
	Enforced drams.Enforcement
	// Cleanup removes the attack (nil when nothing is left installed).
	Cleanup func()
}

// Harness hands a scenario the handles it needs on a live deployment.
type Harness struct {
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
func (h *Harness) LIIdentity(tenant string) *crypto.Identity {
	return crypto.NewIdentityFromSeed("li@"+tenant, federation.IdentitySeed(h.Seed, "li@"+tenant))
}

// NodeNames lists every chain node address of the deployment, in topology
// order.
func (h *Harness) NodeNames() []string {
	var names []string
	for _, c := range h.Dep.Topology().Clouds {
		names = append(names, "node@"+c.Name)
	}
	return names
}

// ChaosPolicy is the access policy every scenario runs under: doctors may
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

// escalate is A1's rewrite: the request in transit claims the doctor role.
func escalate(req *xacml.Request) *xacml.Request {
	return xacml.NewRequest(req.ID).Add(xacml.CatSubject, "role", xacml.String("doctor"))
}

// flipEvaluator returns the opposite of the honest decision (compromised
// evaluation process, A4).
type flipEvaluator struct{ inner xacml.Evaluator }

func (f flipEvaluator) Evaluate(r *xacml.Request) (xacml.Result, error) {
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

// permitAllPolicy is the substituted policy of A5.
func permitAllPolicy() *xacml.PolicySet {
	return &xacml.PolicySet{ID: "root", Version: "evil-open", Alg: xacml.PermitUnlessDeny,
		Items: []xacml.PolicyItem{{Policy: &xacml.Policy{ID: "open", Version: "1",
			Alg:   xacml.FirstApplicable,
			Rules: []*xacml.Rule{{ID: "permit-all", Effect: xacml.EffectPermit}}}}}}
}

// lyingDigestEvaluator evaluates a substituted policy but reports the
// anchored policy's identity — the stealthier variant of A5 that M6 cannot
// see and only M5 catches.
type lyingDigestEvaluator struct {
	evil   *xacml.PDP
	honest xacml.Evaluator
}

func (l lyingDigestEvaluator) Evaluate(r *xacml.Request) (xacml.Result, error) {
	res, err := l.evil.Evaluate(r)
	if err != nil {
		return res, err
	}
	honest, herr := l.honest.Evaluate(r)
	if herr == nil {
		res.PolicyID = honest.PolicyID
		res.PolicyVersion = honest.PolicyVersion
		res.PolicyDigest = honest.PolicyDigest
	}
	return res, nil
}

// tamper builds the Run of a §I attack: it plants pep at the victim's PEP,
// or wraps the PDP's evaluator with pdp, sends one intern request (Deny
// under ChaosPolicy) and records what the PEP enforced. The injection's
// Cleanup removes the tamper.
func tamper(pep *federation.Tamper, pdp func(xacml.Evaluator) xacml.Evaluator) func(context.Context, *Harness) (*Injection, error) {
	return func(ctx context.Context, h *Harness) (*Injection, error) {
		var err error
		var cleanup func()
		if pdp != nil {
			err = h.Dep.CompromisePDP(pdp)
			cleanup = func() { _ = h.Dep.CompromisePDP(nil) }
		} else {
			err = h.Dep.TamperPEP(h.Victim, pep)
			cleanup = func() { _ = h.Dep.TamperPEP(h.Victim, nil) }
		}
		if err != nil {
			return nil, err
		}
		at := time.Now()
		_, height := h.Dep.InfraNode().Chain().Head()
		req := ChaosDenyRequest(h.Dep)
		enf, _ := h.Client.Decide(ctx, req) // the suppression attacks fail the call by design
		return &Injection{
			VictimReqID: req.ID, ReqIDs: []string{req.ID},
			At: at, Height: height, Enforced: enf, Cleanup: cleanup,
		}, nil
	}
}

// Catalogue returns the threat catalogue: the §I tamper attacks A1–A7 and
// A5b, then one member-level attack per class. Each is annotated with the
// alerts the monitor must raise.
func Catalogue() []Scenario {
	return []Scenario{
		{
			ID:          "A1",
			Name:        "request tampering in transit",
			Description: "request rewritten (privilege escalation) between PEP egress and PDP ingress",
			Expected:    []core.AlertType{core.AlertRequestTampered},
			WantPermit:  true,
			Run:         tamper(&federation.Tamper{Request: escalate}, nil),
		},
		{
			ID:          "A2",
			Name:        "response tampering in transit",
			Description: "Deny flipped to Permit between PDP egress and PEP ingress",
			Expected:    []core.AlertType{core.AlertResponseTampered},
			WantPermit:  true,
			Run: tamper(&federation.Tamper{Response: func(res xacml.Result) xacml.Result {
				if res.Decision == xacml.Deny {
					res.Decision = xacml.Permit
				}
				return res
			}}, nil),
		},
		{
			ID:          "A3",
			Name:        "PEP enforcement override",
			Description: "compromised PEP grants access regardless of the received decision",
			Expected:    []core.AlertType{core.AlertEnforcementMismatch},
			WantPermit:  true,
			Run:         tamper(&federation.Tamper{Enforce: func(xacml.Decision) xacml.Decision { return xacml.Permit }}, nil),
		},
		{
			ID:          "A4",
			Name:        "PDP evaluation altered",
			Description: "compromised PDP returns the opposite decision while claiming the correct policy",
			Expected:    []core.AlertType{core.AlertDecisionIncorrect},
			Run: tamper(nil, func(inner xacml.Evaluator) xacml.Evaluator {
				return flipEvaluator{inner: inner}
			}),
		},
		{
			ID:          "A5",
			Name:        "policy substitution (honest digest)",
			Description: "PDP evaluates a permit-everything policy that was never anchored by the PAP",
			Expected:    []core.AlertType{core.AlertPolicyTampered, core.AlertDecisionIncorrect},
			WantPermit:  true,
			Run: tamper(nil, func(xacml.Evaluator) xacml.Evaluator {
				return xacml.NewPDP(permitAllPolicy())
			}),
		},
		{
			ID:          "A5b",
			Name:        "policy substitution (forged digest)",
			Description: "PDP evaluates a substituted policy but reports the anchored digest; only the analyser can tell",
			Expected:    []core.AlertType{core.AlertDecisionIncorrect},
			WantPermit:  true,
			Run: tamper(nil, func(inner xacml.Evaluator) xacml.Evaluator {
				return lyingDigestEvaluator{evil: xacml.NewPDP(permitAllPolicy()), honest: inner}
			}),
		},
		{
			ID:          "A6",
			Name:        "request suppression",
			Description: "request dropped after PEP egress; the PDP never sees it",
			Expected:    []core.AlertType{core.AlertMessageSuppressed},
			Run:         tamper(&federation.Tamper{DropRequest: true}, nil),
		},
		{
			ID:          "A7",
			Name:        "response suppression",
			Description: "decision dropped before reaching the PEP; access is never enforced or logged at the edge",
			Expected:    []core.AlertType{core.AlertMessageSuppressed},
			Run:         tamper(&federation.Tamper{DropResponse: true}, nil),
		},
		{
			ID:               "withholding",
			Name:             "block withholding by the victim's member",
			Description:      "the member hosting the victim mines normally but suppresses all outbound block/tx gossip, trapping the victim's probe logs; the honest side's M3 deadline flags the gap",
			Expected:         []core.AlertType{core.AlertMessageSuppressed},
			MineAll:          true,
			VictimOnByzCloud: true,
			Run: func(ctx context.Context, h *Harness) (*Injection, error) {
				h.Byz.WithholdGossip()
				at := time.Now()
				_, height := h.Dep.InfraNode().Chain().Head()
				req := ChaosRequest(h.Dep)
				if _, err := h.Client.Decide(ctx, req); err != nil {
					h.Byz.ReleaseGossip()
					return nil, fmt.Errorf("attack: withholding victim request: %w", err)
				}
				return &Injection{
					VictimReqID: req.ID, ReqIDs: []string{req.ID},
					At: at, Height: height, Cleanup: h.Byz.ReleaseGossip,
				}, nil
			},
		},
		{
			ID:          "equivocation",
			Name:        "double-mined siblings with a conflicting record",
			Description: "after a clean exchange, the member mines two sibling blocks at the same height for different peer subsets, one carrying a forged conflicting pep.request for the victim's request; executing it raises AlertEquivocation",
			Expected:    []core.AlertType{core.AlertEquivocation},
			Run: func(ctx context.Context, h *Harness) (*Injection, error) {
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
				return &Injection{
					VictimReqID: req.ID, ReqIDs: []string{req.ID},
					At: at, Height: height,
				}, nil
			},
		},
		{
			ID:          "censorship",
			Name:        "producer censors the victim's probe logs",
			Description: "the designated block producer drops every transaction from the victim tenant's LI; the pdp-side records still anchor, arm the M3 deadline and expose the censored half",
			Expected:    []core.AlertType{core.AlertMessageSuppressed},
			ByzProducer: true,
			Run: func(ctx context.Context, h *Harness) (*Injection, error) {
				h.Byz.CensorSenders("li@" + h.Victim)
				at := time.Now()
				_, height := h.Dep.InfraNode().Chain().Head()
				req := ChaosRequest(h.Dep)
				if _, err := h.Client.Decide(ctx, req); err != nil {
					h.Byz.LiftCensorship()
					return nil, fmt.Errorf("attack: censorship victim request: %w", err)
				}
				return &Injection{
					VictimReqID: req.ID, ReqIDs: []string{req.ID},
					At: at, Height: height, Cleanup: h.Byz.LiftCensorship,
				}, nil
			},
		},
		{
			ID:          "ordering",
			Name:        "batch pipeline reordered at the PEP/PDP seam",
			Description: "a mixed-outcome DecideBatch pipeline is reversed on the wire after the probes logged the honest order, so every request is enforced with another request's decision; M2 flags the misaligned digests",
			Expected:    []core.AlertType{core.AlertResponseTampered},
			Run: func(ctx context.Context, h *Harness) (*Injection, error) {
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
				return &Injection{
					VictimReqID: permit.ID, ReqIDs: []string{permit.ID, deny.ID},
					At: at, Height: height, Cleanup: cleanup,
				}, nil
			},
		},
		{
			ID:          "suppression",
			Name:        "anchoring delayed past the M3 window",
			Description: "the producer holds the victim's pep.response record in its mempool past the Δ-block deadline, then releases it; the record anchors late but the alert already stands",
			Expected:    []core.AlertType{core.AlertMessageSuppressed},
			ByzProducer: true,
			Run: func(ctx context.Context, h *Harness) (*Injection, error) {
				req := ChaosRequest(h.Dep)
				h.Byz.DelayRecords(HoldRecords(core.KindPEPResponse, req.ID))
				at := time.Now()
				_, height := h.Dep.InfraNode().Chain().Head()
				if _, err := h.Client.Decide(ctx, req); err != nil {
					h.Byz.LiftCensorship()
					return nil, fmt.Errorf("attack: suppression victim request: %w", err)
				}
				return &Injection{
					VictimReqID: req.ID, ReqIDs: []string{req.ID},
					At: at, Height: height, Cleanup: h.Byz.LiftCensorship,
				}, nil
			},
		},
	}
}
