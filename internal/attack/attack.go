// Package attack implements the threat model of the paper's §I ("it is
// possible that the components are compromised so that access requests or
// responses are modified, or the policies and the evaluation process are
// altered by a malicious user or software to gain unauthorised access") as
// an executable catalogue of attack scenarios, plus the chain-level
// analyses (log forgery, history rewriting) used by experiments E3 and E5.
//
// Each Scenario knows how to install itself into a running drams.Deployment
// and which alert types the monitor must raise — the ground truth for the
// E5 detection matrix.
package attack

import (
	"fmt"

	"drams"
	"drams/internal/core"
	"drams/internal/federation"
	"drams/internal/xacml"
)

// Scenario is one executable attack from the threat model.
type Scenario struct {
	// ID is the attack identifier (A1…A8, A5b) of docs/ARCHITECTURE.md §9,
	// *Detection mapping*.
	ID string
	// Name is a short label.
	Name string
	// Description explains the attack in operator terms.
	Description string
	// Expected lists the alert types that must fire (any one suffices for
	// detection; all listed are plausible).
	Expected []core.AlertType
	// WantPermit is the enforced outcome the attacker is after (used by
	// scenarios whose precondition is a wrongly granted access).
	WantPermit bool
	// install plants the attack; returned func removes it.
	install func(dep *drams.Deployment, victim string) (cleanup func(), err error)
}

// Install plants the scenario at the victim tenant and returns a cleanup
// function.
func (s Scenario) Install(dep *drams.Deployment, victim string) (func(), error) {
	return s.install(dep, victim)
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

// Catalogue returns the executable threat catalogue. escalate rewrites a
// request into its privileged form (used by A1); it may be nil when A1 is
// not exercised.
func Catalogue(escalate func(*xacml.Request) *xacml.Request) []Scenario {
	return []Scenario{
		{
			ID:          "A1",
			Name:        "request tampering in transit",
			Description: "request rewritten (privilege escalation) between PEP egress and PDP ingress",
			Expected:    []core.AlertType{core.AlertRequestTampered},
			WantPermit:  true,
			install: func(dep *drams.Deployment, victim string) (func(), error) {
				if escalate == nil {
					return nil, fmt.Errorf("attack: A1 needs an escalation rewrite")
				}
				if err := dep.TamperPEP(victim, &federation.Tamper{Request: escalate}); err != nil {
					return nil, err
				}
				return func() { _ = dep.TamperPEP(victim, nil) }, nil
			},
		},
		{
			ID:          "A2",
			Name:        "response tampering in transit",
			Description: "Deny flipped to Permit between PDP egress and PEP ingress",
			Expected:    []core.AlertType{core.AlertResponseTampered},
			WantPermit:  true,
			install: func(dep *drams.Deployment, victim string) (func(), error) {
				t := &federation.Tamper{Response: func(res xacml.Result) xacml.Result {
					if res.Decision == xacml.Deny {
						res.Decision = xacml.Permit
					}
					return res
				}}
				if err := dep.TamperPEP(victim, t); err != nil {
					return nil, err
				}
				return func() { _ = dep.TamperPEP(victim, nil) }, nil
			},
		},
		{
			ID:          "A3",
			Name:        "PEP enforcement override",
			Description: "compromised PEP grants access regardless of the received decision",
			Expected:    []core.AlertType{core.AlertEnforcementMismatch},
			WantPermit:  true,
			install: func(dep *drams.Deployment, victim string) (func(), error) {
				t := &federation.Tamper{Enforce: func(xacml.Decision) xacml.Decision { return xacml.Permit }}
				if err := dep.TamperPEP(victim, t); err != nil {
					return nil, err
				}
				return func() { _ = dep.TamperPEP(victim, nil) }, nil
			},
		},
		{
			ID:          "A4",
			Name:        "PDP evaluation altered",
			Description: "compromised PDP returns the opposite decision while claiming the correct policy",
			Expected:    []core.AlertType{core.AlertDecisionIncorrect},
			install: func(dep *drams.Deployment, victim string) (func(), error) {
				if err := dep.CompromisePDP(func(inner xacml.Evaluator) xacml.Evaluator {
					return flipEvaluator{inner: inner}
				}); err != nil {
					return nil, err
				}
				return func() { _ = dep.CompromisePDP(nil) }, nil
			},
		},
		{
			ID:          "A5",
			Name:        "policy substitution (honest digest)",
			Description: "PDP evaluates a permit-everything policy that was never anchored by the PAP",
			Expected:    []core.AlertType{core.AlertPolicyTampered},
			WantPermit:  true,
			install: func(dep *drams.Deployment, victim string) (func(), error) {
				evil := xacml.NewPDP(permitAllPolicy())
				if err := dep.CompromisePDP(func(xacml.Evaluator) xacml.Evaluator { return evil }); err != nil {
					return nil, err
				}
				return func() { _ = dep.CompromisePDP(nil) }, nil
			},
		},
		{
			ID:          "A5b",
			Name:        "policy substitution (forged digest)",
			Description: "PDP evaluates a substituted policy but reports the anchored digest; only the analyser can tell",
			Expected:    []core.AlertType{core.AlertDecisionIncorrect},
			WantPermit:  true,
			install: func(dep *drams.Deployment, victim string) (func(), error) {
				evil := xacml.NewPDP(permitAllPolicy())
				if err := dep.CompromisePDP(func(inner xacml.Evaluator) xacml.Evaluator {
					return lyingDigestEvaluator{evil: evil, honest: inner}
				}); err != nil {
					return nil, err
				}
				return func() { _ = dep.CompromisePDP(nil) }, nil
			},
		},
		{
			ID:          "A6",
			Name:        "request suppression",
			Description: "request dropped after PEP egress; the PDP never sees it",
			Expected:    []core.AlertType{core.AlertMessageSuppressed},
			install: func(dep *drams.Deployment, victim string) (func(), error) {
				if err := dep.TamperPEP(victim, &federation.Tamper{DropRequest: true}); err != nil {
					return nil, err
				}
				return func() { _ = dep.TamperPEP(victim, nil) }, nil
			},
		},
		{
			ID:          "A7",
			Name:        "response suppression",
			Description: "decision dropped before reaching the PEP; access is never enforced or logged at the edge",
			Expected:    []core.AlertType{core.AlertMessageSuppressed},
			install: func(dep *drams.Deployment, victim string) (func(), error) {
				if err := dep.TamperPEP(victim, &federation.Tamper{DropResponse: true}); err != nil {
					return nil, err
				}
				return func() { _ = dep.TamperPEP(victim, nil) }, nil
			},
		},
	}
}
