package xacml

import (
	"encoding/json"
	"fmt"

	"drams/internal/crypto"
)

// Effect is the outcome a rule prescribes.
type Effect uint8

// Rule effects.
const (
	EffectPermit Effect = iota + 1
	EffectDeny
)

// String implements fmt.Stringer.
func (e Effect) String() string {
	switch e {
	case EffectPermit:
		return "Permit"
	case EffectDeny:
		return "Deny"
	default:
		return fmt.Sprintf("Effect(%d)", uint8(e))
	}
}

// Decision is the six-valued XACML 3.0 decision lattice: the three
// Indeterminate flavours record which effects the failed evaluation could
// have produced, which the standard combining algorithms depend on (§7.19).
type Decision uint8

// Decisions.
const (
	NotApplicable Decision = iota + 1
	Permit
	Deny
	IndeterminateP  // could only have been Permit
	IndeterminateD  // could only have been Deny
	IndeterminateDP // could have been either
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case NotApplicable:
		return "NotApplicable"
	case Permit:
		return "Permit"
	case Deny:
		return "Deny"
	case IndeterminateP:
		return "Indeterminate{P}"
	case IndeterminateD:
		return "Indeterminate{D}"
	case IndeterminateDP:
		return "Indeterminate{DP}"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// IsIndeterminate reports whether d is any Indeterminate flavour.
func (d Decision) IsIndeterminate() bool {
	return d == IndeterminateP || d == IndeterminateD || d == IndeterminateDP
}

// Simple collapses the extended lattice to the four externally visible
// decisions (what a PEP acts upon).
func (d Decision) Simple() Decision {
	if d.IsIndeterminate() {
		return IndeterminateDP
	}
	return d
}

// indeterminateFor maps an effect to its Indeterminate flavour.
func indeterminateFor(e Effect) Decision {
	if e == EffectPermit {
		return IndeterminateP
	}
	return IndeterminateD
}

// CombiningAlg names a combining algorithm.
type CombiningAlg string

// The six standard combining algorithms.
const (
	DenyOverrides     CombiningAlg = "deny-overrides"
	PermitOverrides   CombiningAlg = "permit-overrides"
	FirstApplicable   CombiningAlg = "first-applicable"
	OnlyOneApplicable CombiningAlg = "only-one-applicable"
	DenyUnlessPermit  CombiningAlg = "deny-unless-permit"
	PermitUnlessDeny  CombiningAlg = "permit-unless-deny"
)

// Obligation is an action the PEP must fulfil alongside enforcing the
// decision.
type Obligation struct {
	ID        string            `json:"id"`
	FulfillOn Effect            `json:"fulfillOn"`
	Params    map[string]string `json:"params,omitempty"`
}

// Rule is the atomic policy element.
type Rule struct {
	ID        string
	Effect    Effect
	Target    Target
	Condition Expr // nil means "true"
	Obligs    []Obligation
}

// Evaluate computes the rule's decision per XACML 3.0 §7.11 (table 4).
func (ru *Rule) Evaluate(r *Request) Decision {
	d, _ := ru.decide(r)
	return d
}

// decide is the rule's step of the evaluation walk: its decision and, when
// that decision is Permit or Deny, its obligations for that effect.
func (ru *Rule) decide(r *Request) (Decision, []Obligation) {
	switch ru.Target.Evaluate(r) {
	case MatchNo:
		return NotApplicable, nil
	case MatchIndeterminate:
		return indeterminateFor(ru.Effect), nil
	}
	if ru.Condition != nil {
		ok, err := ru.Condition.Eval(r)
		if err != nil {
			return indeterminateFor(ru.Effect), nil
		}
		if !ok {
			return NotApplicable, nil
		}
	}
	d := Deny
	if ru.Effect == EffectPermit {
		d = Permit
	}
	return d, appendFulfilled(nil, ru.Obligs, d)
}

// ruleJSON is the serialisable form of Rule (Condition is polymorphic).
type ruleJSON struct {
	ID        string          `json:"id"`
	Effect    Effect          `json:"effect"`
	Target    Target          `json:"target"`
	Condition json.RawMessage `json:"condition,omitempty"`
	Obligs    []Obligation    `json:"obligations,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (ru *Rule) MarshalJSON() ([]byte, error) {
	cond, err := MarshalExpr(ru.Condition)
	if err != nil {
		return nil, err
	}
	rj := ruleJSON{ID: ru.ID, Effect: ru.Effect, Target: ru.Target, Obligs: ru.Obligs}
	if string(cond) != "null" {
		rj.Condition = cond
	}
	return json.Marshal(rj)
}

// UnmarshalJSON implements json.Unmarshaler.
func (ru *Rule) UnmarshalJSON(data []byte) error {
	var rj ruleJSON
	if err := json.Unmarshal(data, &rj); err != nil {
		return fmt.Errorf("xacml: unmarshal rule: %w", err)
	}
	cond, err := UnmarshalExpr(rj.Condition)
	if err != nil {
		return err
	}
	*ru = Rule{ID: rj.ID, Effect: rj.Effect, Target: rj.Target, Condition: cond, Obligs: rj.Obligs}
	return nil
}

// Policy groups rules under a target and a rule-combining algorithm.
type Policy struct {
	ID      string       `json:"id"`
	Version string       `json:"version"`
	Target  Target       `json:"target"`
	Alg     CombiningAlg `json:"alg"`
	Rules   []*Rule      `json:"rules"`
	Obligs  []Obligation `json:"obligations,omitempty"`
}

// Evaluate computes the policy decision per XACML 3.0 §7.12/§7.13.
func (p *Policy) Evaluate(r *Request) Decision {
	d, _ := p.decide(r)
	return d
}

// decide is the policy's step of the evaluation walk: the rules are
// evaluated in order until the decision is settled, and after that only
// those that carry an obligation on the settled effect. The obligations are
// the policy's own for the effect of its decision followed by those of the
// rules that decided the same.
func (p *Policy) decide(r *Request) (Decision, []Obligation) {
	match := p.Target.Evaluate(r)
	if match == MatchNo {
		return NotApplicable, nil
	}
	c := combiner{alg: p.Alg}
	for _, ru := range p.Rules {
		if c.settled && !fulfilledOn(ru.Obligs, c.owed) {
			continue
		}
		c.add(ru.decide(r))
	}
	d := c.result()
	if match == MatchIndeterminate {
		return targetIndeterminate(d), nil
	}
	return d, prependFulfilled(p.Obligs, d, c.children(d))
}

// PolicyItem is one child of a PolicySet: exactly one of Policy / Set is
// non-nil.
type PolicyItem struct {
	Policy *Policy    `json:"policy,omitempty"`
	Set    *PolicySet `json:"set,omitempty"`
}

// Evaluate dispatches to the non-nil child.
func (pi PolicyItem) Evaluate(r *Request) Decision {
	d, _ := pi.decide(r)
	return d
}

func (pi PolicyItem) decide(r *Request) (Decision, []Obligation) {
	if pi.Policy != nil {
		return pi.Policy.decide(r)
	}
	if pi.Set != nil {
		return pi.Set.decide(r)
	}
	return NotApplicable, nil
}

// matchTarget exposes the child's target match, used by only-one-applicable.
func (pi PolicyItem) matchTarget(r *Request) MatchResult {
	if pi.Policy != nil {
		return pi.Policy.Target.Evaluate(r)
	}
	if pi.Set != nil {
		return pi.Set.Target.Evaluate(r)
	}
	return MatchNo
}

// obliges reports whether the child carries, at any depth, an obligation
// fulfilled on eff, so whether evaluating it could add to the obligations
// of a decision already settled on eff.
func (pi PolicyItem) obliges(eff Effect) bool {
	if p := pi.Policy; p != nil {
		for _, ru := range p.Rules {
			if fulfilledOn(ru.Obligs, eff) {
				return true
			}
		}
		return fulfilledOn(p.Obligs, eff)
	}
	if ps := pi.Set; ps != nil {
		for i := range ps.Items {
			if ps.Items[i].obliges(eff) {
				return true
			}
		}
		return fulfilledOn(ps.Obligs, eff)
	}
	return false
}

// PolicySet groups policies/policy sets under a policy-combining algorithm.
type PolicySet struct {
	ID      string       `json:"id"`
	Version string       `json:"version"`
	Target  Target       `json:"target"`
	Alg     CombiningAlg `json:"alg"`
	Items   []PolicyItem `json:"items"`
	Obligs  []Obligation `json:"obligations,omitempty"`
}

// Evaluate computes the policy-set decision.
func (ps *PolicySet) Evaluate(r *Request) Decision {
	d, _ := ps.decide(r)
	return d
}

// decide is the set's step of the evaluation walk, and the walk's entry
// point: the decision and the obligations to fulfil with it, the set's own
// for the effect of its decision followed by those of the children that
// decided the same, in order (XACML 3.0 §7.18 restricted to this subset).
func (ps *PolicySet) decide(r *Request) (Decision, []Obligation) {
	match := ps.Target.Evaluate(r)
	if match == MatchNo {
		return NotApplicable, nil
	}
	var d Decision
	var obls []Obligation
	if ps.Alg == OnlyOneApplicable {
		d, obls = ps.onlyOneApplicable(r)
	} else {
		c := combiner{alg: ps.Alg}
		for i := range ps.Items {
			if c.settled && !ps.Items[i].obliges(c.owed) {
				continue
			}
			c.add(ps.Items[i].decide(r))
		}
		d = c.result()
		obls = c.children(d)
	}
	if match == MatchIndeterminate {
		return targetIndeterminate(d), nil
	}
	return d, prependFulfilled(ps.Obligs, d, obls)
}

// onlyOneApplicable implements XACML 3.0 §C.9 on child targets: only the
// one applicable child is evaluated, so its obligations are the children's.
func (ps *PolicySet) onlyOneApplicable(r *Request) (Decision, []Obligation) {
	selected := -1
	for i := range ps.Items {
		switch ps.Items[i].matchTarget(r) {
		case MatchIndeterminate:
			return IndeterminateDP, nil
		case MatchYes:
			if selected >= 0 {
				return IndeterminateDP, nil // more than one applicable
			}
			selected = i
		}
	}
	if selected < 0 {
		return NotApplicable, nil
	}
	return ps.Items[selected].decide(r)
}

// targetIndeterminate converts a combined decision into the policy value
// when the policy target itself was Indeterminate (XACML 3.0 table 7).
func targetIndeterminate(combined Decision) Decision {
	switch combined {
	case Permit:
		return IndeterminateP
	case Deny:
		return IndeterminateD
	case NotApplicable:
		return NotApplicable
	default:
		return combined // already an Indeterminate flavour
	}
}

// combiner folds children's decisions, one at a time, into a combining
// algorithm's result (XACML 3.0 appendix C), and keeps the obligations of
// the children that decided Permit and of those that decided Deny. The
// flags make each algorithm's result independent of where in the order a
// dominating decision appeared.
//
// The walk stops at the child that settles the decision, the point after
// which no later child can change the result:
//   - deny-overrides and permit-unless-deny are settled once a child
//     decided Deny;
//   - permit-overrides and deny-unless-permit once a child decided Permit;
//   - first-applicable once a child decided anything but NotApplicable.
//
// Once settled, a later child is evaluated only if it carries, at any
// depth, an obligation fulfilled on the settled effect (owed), since it
// could add to the decision's obligations; with none, as in every
// generated policy, the rest of the loop evaluates nothing. A settled
// Indeterminate owes no effect. Only-one-applicable is not combined here.
// The combiner allocates only to keep an obligation.
type combiner struct {
	alg                             CombiningAlg
	first                           Decision // first-applicable: the first decision that is not NotApplicable
	permit, deny, indP, indD, indDP bool
	settled                         bool   // no later child can change result()
	owed                            Effect // once settled: the effect whose obligations later children may add
	permitObls, denyObls            []Obligation
}

func (c *combiner) add(d Decision, obls []Obligation) {
	switch d {
	case Permit:
		c.permit = true
		c.permitObls = append(c.permitObls, obls...)
	case Deny:
		c.deny = true
		c.denyObls = append(c.denyObls, obls...)
	case IndeterminateP:
		c.indP = true
	case IndeterminateD:
		c.indD = true
	case IndeterminateDP:
		c.indDP = true
	}
	if d == NotApplicable || c.settled {
		return
	}
	if c.first == 0 {
		c.first = d
	}
	c.settled = c.settles(d)
	if c.settled {
		c.owed = decisionEffect(d)
	}
}

// settles reports whether d, an applicable decision just added, settles the
// combined decision.
func (c *combiner) settles(d Decision) bool {
	switch c.alg {
	case DenyOverrides, PermitUnlessDeny:
		return d == Deny
	case PermitOverrides, DenyUnlessPermit:
		return d == Permit
	case FirstApplicable:
		return true
	}
	return false
}

// result is the combined decision. Only-one-applicable, valid at policy-set
// level only and handled there, is a rule-level authoring error surfaced as
// Indeterminate, like an unknown algorithm.
func (c *combiner) result() Decision {
	switch c.alg {
	case DenyOverrides: // §C.2/§C.6
		switch {
		case c.deny:
			return Deny
		case c.indDP, c.indD && (c.indP || c.permit):
			return IndeterminateDP
		case c.indD:
			return IndeterminateD
		case c.permit:
			return Permit
		case c.indP:
			return IndeterminateP
		}
		return NotApplicable
	case PermitOverrides: // §C.3/§C.7
		switch {
		case c.permit:
			return Permit
		case c.indDP, c.indP && (c.indD || c.deny):
			return IndeterminateDP
		case c.indP:
			return IndeterminateP
		case c.deny:
			return Deny
		case c.indD:
			return IndeterminateD
		}
		return NotApplicable
	case FirstApplicable: // §C.8
		switch c.first {
		case 0:
			return NotApplicable
		case Permit, Deny:
			return c.first
		}
		return IndeterminateDP
	case DenyUnlessPermit:
		if c.permit {
			return Permit
		}
		return Deny
	case PermitUnlessDeny:
		if c.deny {
			return Deny
		}
		return Permit
	}
	return IndeterminateDP
}

// children returns the obligations of the children that decided d.
func (c *combiner) children(d Decision) []Obligation {
	switch d {
	case Permit:
		return c.permitObls
	case Deny:
		return c.denyObls
	}
	return nil
}

// prependFulfilled returns a node's obligations for its decision d: own's
// for the effect of d followed by children, those of the children that
// decided d. Both are copied out of the policy by appendFulfilled, so no
// returned slice shares storage with the policy tree.
func prependFulfilled(own []Obligation, d Decision, children []Obligation) []Obligation {
	out := appendFulfilled(nil, own, d)
	if out == nil {
		return children
	}
	return append(out, children...)
}

// fulfilledOn reports whether an obligation in obls is fulfilled on eff.
// None is fulfilled on the zero effect, which no decision has.
func fulfilledOn(obls []Obligation, eff Effect) bool {
	if eff == 0 {
		return false
	}
	for _, o := range obls {
		if o.FulfillOn == eff {
			return true
		}
	}
	return false
}

// appendFulfilled appends the obligations in obls that are fulfilled on the
// effect of d; none for a decision that is not Permit or Deny.
func appendFulfilled(dst, obls []Obligation, d Decision) []Obligation {
	eff := decisionEffect(d)
	if eff == 0 {
		return dst
	}
	for _, o := range obls {
		if o.FulfillOn == eff {
			dst = append(dst, o)
		}
	}
	return dst
}

// Encode serialises the policy set as canonical JSON.
func (ps *PolicySet) Encode() []byte {
	b, err := json.Marshal(ps)
	if err != nil {
		panic(fmt.Sprintf("xacml: encode policy set: %v", err))
	}
	return b
}

// DecodePolicySet parses a JSON policy set.
func DecodePolicySet(data []byte) (*PolicySet, error) {
	var ps PolicySet
	if err := json.Unmarshal(data, &ps); err != nil {
		return nil, fmt.Errorf("xacml: decode policy set: %w", err)
	}
	return &ps, nil
}

// Digest returns the canonical content digest of the policy set; the PAP
// anchors this on-chain and the monitor compares it against the digest the
// PDP reports having evaluated (check M6).
func (ps *PolicySet) Digest() crypto.Digest {
	return crypto.Sum(ps.Encode())
}

// Clone deep-copies the policy set via serialisation.
func (ps *PolicySet) Clone() *PolicySet {
	out, err := DecodePolicySet(ps.Encode())
	if err != nil {
		panic(fmt.Sprintf("xacml: clone policy set: %v", err))
	}
	return out
}

func decisionEffect(d Decision) Effect {
	switch d {
	case Permit:
		return EffectPermit
	case Deny:
		return EffectDeny
	default:
		return 0
	}
}
