package xacml

import (
	"fmt"
	"reflect"
	"testing"

	"drams/internal/idgen"
)

// The evaluation walk decides and gathers obligations in one pass. The
// reference below is the design it replaced, kept here only to check it:
// decisions by lazily evaluated children and per-algorithm functions, then
// obligations by a second walk that re-evaluates the set, each policy and
// each rule.

func refRule(ru *Rule, r *Request) Decision {
	switch ru.Target.Evaluate(r) {
	case MatchNo:
		return NotApplicable
	case MatchIndeterminate:
		return indeterminateFor(ru.Effect)
	}
	if ru.Condition != nil {
		ok, err := ru.Condition.Eval(r)
		if err != nil {
			return indeterminateFor(ru.Effect)
		}
		if !ok {
			return NotApplicable
		}
	}
	if ru.Effect == EffectPermit {
		return Permit
	}
	return Deny
}

func refPolicy(p *Policy, r *Request) Decision {
	get := func(i int) Decision { return refRule(p.Rules[i], r) }
	switch p.Target.Evaluate(r) {
	case MatchNo:
		return NotApplicable
	case MatchIndeterminate:
		return targetIndeterminate(refCombine(p.Alg, len(p.Rules), get))
	}
	return refCombine(p.Alg, len(p.Rules), get)
}

func refItem(pi PolicyItem, r *Request) Decision {
	if pi.Policy != nil {
		return refPolicy(pi.Policy, r)
	}
	if pi.Set != nil {
		return refSet(pi.Set, r)
	}
	return NotApplicable
}

func refSet(ps *PolicySet, r *Request) Decision {
	combined := func() Decision {
		if ps.Alg == OnlyOneApplicable {
			selected := -1
			for i := range ps.Items {
				switch ps.Items[i].matchTarget(r) {
				case MatchIndeterminate:
					return IndeterminateDP
				case MatchYes:
					if selected >= 0 {
						return IndeterminateDP
					}
					selected = i
				}
			}
			if selected < 0 {
				return NotApplicable
			}
			return refItem(ps.Items[selected], r)
		}
		return refCombine(ps.Alg, len(ps.Items), func(i int) Decision { return refItem(ps.Items[i], r) })
	}
	switch ps.Target.Evaluate(r) {
	case MatchNo:
		return NotApplicable
	case MatchIndeterminate:
		return targetIndeterminate(combined())
	}
	return combined()
}

func refCombine(alg CombiningAlg, n int, get func(int) Decision) Decision {
	switch alg {
	case DenyOverrides:
		return refDenyOverrides(n, get)
	case PermitOverrides:
		return refPermitOverrides(n, get)
	case FirstApplicable:
		return refFirstApplicable(n, get)
	case DenyUnlessPermit:
		for i := 0; i < n; i++ {
			if get(i) == Permit {
				return Permit
			}
		}
		return Deny
	case PermitUnlessDeny:
		for i := 0; i < n; i++ {
			if get(i) == Deny {
				return Deny
			}
		}
		return Permit
	default: // only-one-applicable at rule level, or an unknown algorithm
		return IndeterminateDP
	}
}

func refDenyOverrides(n int, get func(int) Decision) Decision {
	var anyIndetD, anyIndetP, anyIndetDP, anyPermit bool
	for i := 0; i < n; i++ {
		switch get(i) {
		case Deny:
			return Deny
		case Permit:
			anyPermit = true
		case IndeterminateD:
			anyIndetD = true
		case IndeterminateP:
			anyIndetP = true
		case IndeterminateDP:
			anyIndetDP = true
		}
	}
	switch {
	case anyIndetDP:
		return IndeterminateDP
	case anyIndetD && (anyIndetP || anyPermit):
		return IndeterminateDP
	case anyIndetD:
		return IndeterminateD
	case anyPermit:
		return Permit
	case anyIndetP:
		return IndeterminateP
	default:
		return NotApplicable
	}
}

func refPermitOverrides(n int, get func(int) Decision) Decision {
	var anyIndetD, anyIndetP, anyIndetDP, anyDeny bool
	for i := 0; i < n; i++ {
		switch get(i) {
		case Permit:
			return Permit
		case Deny:
			anyDeny = true
		case IndeterminateD:
			anyIndetD = true
		case IndeterminateP:
			anyIndetP = true
		case IndeterminateDP:
			anyIndetDP = true
		}
	}
	switch {
	case anyIndetDP:
		return IndeterminateDP
	case anyIndetP && (anyIndetD || anyDeny):
		return IndeterminateDP
	case anyIndetP:
		return IndeterminateP
	case anyDeny:
		return Deny
	case anyIndetD:
		return IndeterminateD
	default:
		return NotApplicable
	}
}

func refFirstApplicable(n int, get func(int) Decision) Decision {
	for i := 0; i < n; i++ {
		switch d := get(i); d {
		case NotApplicable:
			continue
		case Permit, Deny:
			return d
		default:
			return IndeterminateDP
		}
	}
	return NotApplicable
}

// refCollectObligations is the second walk: every obligation at set, policy
// and rule level whose FulfillOn matches the final decision's effect, from
// elements that produced that effect.
func refCollectObligations(ps *PolicySet, r *Request, final Decision) []Obligation {
	eff := decisionEffect(final)
	if eff == 0 {
		return nil
	}
	var out []Obligation
	refCollectSet(ps, r, eff, &out)
	return out
}

func refCollectSet(ps *PolicySet, r *Request, eff Effect, out *[]Obligation) {
	if decisionEffect(refSet(ps, r)) != eff {
		return
	}
	*out = appendFulfilledOn(*out, ps.Obligs, eff)
	for _, item := range ps.Items {
		if item.Policy != nil {
			refCollectPolicy(item.Policy, r, eff, out)
		}
		if item.Set != nil {
			refCollectSet(item.Set, r, eff, out)
		}
	}
}

func refCollectPolicy(p *Policy, r *Request, eff Effect, out *[]Obligation) {
	if decisionEffect(refPolicy(p, r)) != eff {
		return
	}
	*out = appendFulfilledOn(*out, p.Obligs, eff)
	for _, ru := range p.Rules {
		if decisionEffect(refRule(ru, r)) == eff {
			*out = appendFulfilledOn(*out, ru.Obligs, eff)
		}
	}
}

func appendFulfilledOn(dst, obls []Obligation, eff Effect) []Obligation {
	for _, o := range obls {
		if o.FulfillOn == eff {
			dst = append(dst, o)
		}
	}
	return dst
}

// obligedPolicySet generates a policy set with a nested set, every
// combining algorithm drawn from all six (only-one-applicable included, at
// both levels), and obligations attached at set, policy and rule level.
func obligedPolicySet(seed uint64) (*PolicySet, *Generator) {
	gen := NewGenerator(seed, DefaultGenParams())
	rng := idgen.NewRand(seed ^ 0x9e3779b97f4a7c15)
	algs := CombiningAlgs()
	obls := func(node string) []Obligation {
		var out []Obligation
		for i := rng.Intn(3); i > 0; i-- {
			o := Obligation{ID: fmt.Sprintf("%s-o%d", node, i), FulfillOn: EffectPermit}
			if rng.Intn(2) == 0 {
				o.FulfillOn = EffectDeny
			}
			if rng.Intn(2) == 0 {
				o.Params = map[string]string{"node": node}
			}
			out = append(out, o)
		}
		return out
	}
	var decorate func(ps *PolicySet)
	decorate = func(ps *PolicySet) {
		ps.Alg = algs[rng.Intn(len(algs))]
		ps.Obligs = obls(ps.ID)
		for _, item := range ps.Items {
			if item.Set != nil {
				decorate(item.Set)
				continue
			}
			item.Policy.Alg = algs[rng.Intn(len(algs))]
			item.Policy.Obligs = obls(item.Policy.ID)
			for _, ru := range item.Policy.Rules {
				ru.Obligs = obls(ru.ID)
			}
		}
	}
	ps := gen.PolicySet("root", "v1")
	ps.Items = append(ps.Items, PolicyItem{Set: gen.PolicySet("inner", "v1")})
	decorate(ps)
	return ps, gen
}

// The walk's decision and obligations equal the two-walk reference's on
// generated policies, and the PDP hands over the walk's list.
func TestWalkMatchesTwoWalkReference(t *testing.T) {
	seeds, requests := 200, 300
	if testing.Short() {
		seeds = 20
	}
	var withObligations, onlyOneDecided int
	for seed := 1; seed <= seeds; seed++ {
		ps, gen := obligedPolicySet(uint64(seed))
		pdp := NewPDP(ps)
		for i := 0; i < requests; i++ {
			r := gen.Request("r")
			d, obls := ps.decide(r)
			want := refSet(ps, r)
			if d != want {
				t.Fatalf("seed %d request %d: decision %s, reference %s", seed, i, d, want)
			}
			if wantObls := refCollectObligations(ps, r, want.Simple()); !reflect.DeepEqual(obls, wantObls) {
				t.Fatalf("seed %d request %d (%s): obligations\n got %v\nwant %v", seed, i, d, obls, wantObls)
			}
			if i%30 == 0 {
				res, err := pdp.Evaluate(r)
				if err != nil || res.Extended != d || !reflect.DeepEqual(res.Obligations, obls) {
					t.Fatalf("seed %d request %d: PDP %+v, %v", seed, i, res, err)
				}
			}
			if len(obls) > 0 {
				withObligations++
			}
			if ps.Alg == OnlyOneApplicable && (d == Permit || d == Deny) {
				onlyOneDecided++
			}
		}
	}
	if withObligations == 0 || onlyOneDecided == 0 {
		t.Fatalf("coverage: %d decisions carried obligations, %d only-one-applicable sets decided", withObligations, onlyOneDecided)
	}
}

// With no obligation in the policy, the walk allocates nothing: the
// combiners live on the stack and a missing MustBePresent attribute is the
// bare sentinel.
func TestWalkAllocatesNothingWithoutObligations(t *testing.T) {
	params := DefaultGenParams()
	params.MustBePresentRate = 0.3
	gen := NewGenerator(7, params)
	ps := gen.PolicySet("root", "v1")
	for i := 0; i < 50; i++ {
		r := gen.Request("r")
		if allocs := testing.AllocsPerRun(20, func() { ps.decide(r) }); allocs != 0 {
			t.Fatalf("request %d: %.1f allocations per walk", i, allocs)
		}
	}
}
