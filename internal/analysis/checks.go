package analysis

import (
	"fmt"

	"drams/internal/xacml"
)

// maxWitnesses bounds how many counterexamples a report retains.
const maxWitnesses = 16

// CompletenessReport is the outcome of a completeness check: a policy is
// complete over the abstract domain when every request yields Permit or
// Deny (never NotApplicable or Indeterminate).
type CompletenessReport struct {
	Checked        int
	Complete       bool
	NotApplicable  int
	Indeterminate  int
	NAWitnesses    []*xacml.Request
	IndetWitnesses []*xacml.Request
}

// CheckCompleteness evaluates the compiled policy over its abstract domain.
//
//lint:ignore deadcode examples/federation runs it: the analyser's policy checks over the logical representation (paper §II)
func CheckCompleteness(c *Compiled, dom *Domain, params EnumParams) CompletenessReport {
	rep := CompletenessReport{Complete: true}
	for _, r := range dom.Requests(params) {
		rep.Checked++
		switch c.ExpectedSimple(r) {
		case xacml.NotApplicable:
			rep.Complete = false
			rep.NotApplicable++
			if len(rep.NAWitnesses) < maxWitnesses {
				rep.NAWitnesses = append(rep.NAWitnesses, r)
			}
		case xacml.IndeterminateDP:
			rep.Complete = false
			rep.Indeterminate++
			if len(rep.IndetWitnesses) < maxWitnesses {
				rep.IndetWitnesses = append(rep.IndetWitnesses, r)
			}
		}
	}
	return rep
}

// ImpactWitness is a request whose decision changed between two policy
// versions.
type ImpactWitness struct {
	Request *xacml.Request
	Before  xacml.Decision
	After   xacml.Decision
}

// String renders the witness compactly.
func (w ImpactWitness) String() string {
	return fmt.Sprintf("%s: %s → %s", string(w.Request.CanonicalBytes()), w.Before, w.After)
}

// ImpactReport is the outcome of a change-impact analysis.
type ImpactReport struct {
	Checked     int
	Differences int
	Equivalent  bool
	Witnesses   []ImpactWitness
}

// ChangeImpact compares two policy versions over the union of their
// abstract domains and reports witness requests whose (four-valued)
// decision differs — the ref [8] capability DRAMS uses when policies are
// updated.
func ChangeImpact(before, after *xacml.PolicySet, params EnumParams) ImpactReport {
	dom := ExtractDomain(before, after)
	cb, ca := Compile(before), Compile(after)
	rep := ImpactReport{Equivalent: true}
	for _, r := range dom.Requests(params) {
		rep.Checked++
		db, da := cb.ExpectedSimple(r), ca.ExpectedSimple(r)
		if db != da {
			rep.Equivalent = false
			rep.Differences++
			if len(rep.Witnesses) < maxWitnesses {
				rep.Witnesses = append(rep.Witnesses, ImpactWitness{Request: r, Before: db, After: da})
			}
		}
	}
	return rep
}

// RedundancyReport lists rules whose removal does not change any decision
// over the abstract domain (domain-relative redundancy).
type RedundancyReport struct {
	Checked        int // requests evaluated per rule
	RedundantRules []string
}

// CheckRedundancy tests each rule of each (possibly nested) policy for
// domain-relative redundancy.
//
//lint:ignore deadcode examples/federation runs it: the analyser's policy checks over the logical representation (paper §II)
func CheckRedundancy(ps *xacml.PolicySet, params EnumParams) RedundancyReport {
	dom := ExtractDomain(ps)
	reqs := dom.Requests(params)
	base := Compile(ps)
	baseline := make([]xacml.Decision, len(reqs))
	for i, r := range reqs {
		baseline[i] = base.ExpectedSimple(r)
	}
	rep := RedundancyReport{Checked: len(reqs)}

	type ruleRef struct {
		policy *xacml.Policy
		idx    int
		id     string
	}
	var refs []ruleRef
	var collect func(ps *xacml.PolicySet)
	collect = func(ps *xacml.PolicySet) {
		for _, item := range ps.Items {
			if item.Policy != nil {
				for i, ru := range item.Policy.Rules {
					refs = append(refs, ruleRef{policy: item.Policy, idx: i, id: ru.ID})
				}
			}
			if item.Set != nil {
				collect(item.Set)
			}
		}
	}
	collect(ps)

	for _, ref := range refs {
		// Temporarily remove the rule, recompile, compare.
		rules := ref.policy.Rules
		without := make([]*xacml.Rule, 0, len(rules)-1)
		without = append(without, rules[:ref.idx]...)
		without = append(without, rules[ref.idx+1:]...)
		ref.policy.Rules = without
		mod := Compile(ps)
		redundant := true
		for i, r := range reqs {
			if mod.ExpectedSimple(r) != baseline[i] {
				redundant = false
				break
			}
		}
		ref.policy.Rules = rules // restore
		if redundant {
			rep.RedundantRules = append(rep.RedundantRules, ref.id)
		}
	}
	return rep
}
