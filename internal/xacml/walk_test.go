package xacml

import (
	"errors"
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
			selected, d := refSelect(ps, r)
			if selected < 0 {
				return d
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

// refSelect is only-one-applicable's choice among the set's children: the
// index of the one applicable child, or -1 with the set's decision when
// there is none (NotApplicable) or no single one (Indeterminate).
func refSelect(ps *PolicySet, r *Request) (int, Decision) {
	selected := -1
	for i := range ps.Items {
		switch ps.Items[i].matchTarget(r) {
		case MatchIndeterminate:
			return -1, IndeterminateDP
		case MatchYes:
			if selected >= 0 {
				return -1, IndeterminateDP
			}
			selected = i
		}
	}
	return selected, NotApplicable
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

// CombiningAlgs lists all supported algorithms.
func CombiningAlgs() []CombiningAlg {
	return []CombiningAlg{DenyOverrides, PermitOverrides, FirstApplicable,
		OnlyOneApplicable, DenyUnlessPermit, PermitUnlessDeny}
}

// obligedPolicySet generates a policy set of params' shape with a nested
// set, every combining algorithm drawn from all six (only-one-applicable
// included, at both levels), and the obligations obls draws attached at
// set, policy and rule level.
func obligedPolicySet(seed uint64, params GenParams, obls func(rng *idgen.Rand, node string) []Obligation) (*PolicySet, *Generator) {
	gen := NewGenerator(seed, params)
	rng := idgen.NewRand(seed ^ 0x9e3779b97f4a7c15)
	algs := CombiningAlgs()
	var decorate func(ps *PolicySet)
	decorate = func(ps *PolicySet) {
		ps.Alg = algs[rng.Intn(len(algs))]
		ps.Obligs = obls(rng, ps.ID)
		for _, item := range ps.Items {
			if item.Set != nil {
				decorate(item.Set)
				continue
			}
			item.Policy.Alg = algs[rng.Intn(len(algs))]
			item.Policy.Obligs = obls(rng, item.Policy.ID)
			for _, ru := range item.Policy.Rules {
				ru.Obligs = obls(rng, ru.ID)
			}
		}
	}
	ps := gen.PolicySet("root", "v1")
	ps.Items = append(ps.Items, PolicyItem{Set: gen.PolicySet("inner", "v1")})
	decorate(ps)
	return ps, gen
}

// denseObligations gives two nodes in three one or two obligations, each
// on either effect: the walk rarely stops once settled.
func denseObligations(rng *idgen.Rand, node string) []Obligation {
	var out []Obligation
	for i := rng.Intn(3); i > 0; i-- {
		out = append(out, randObligation(rng, node, i))
	}
	return out
}

// sparseObligations gives a node one obligation, on either effect, with
// probability rate.
func sparseObligations(rate float64) func(rng *idgen.Rand, node string) []Obligation {
	return func(rng *idgen.Rand, node string) []Obligation {
		if rng.Float64() >= rate {
			return nil
		}
		return []Obligation{randObligation(rng, node, 1)}
	}
}

func randObligation(rng *idgen.Rand, node string, i int) Obligation {
	o := Obligation{ID: fmt.Sprintf("%s-o%d", node, i), FulfillOn: EffectPermit}
	if rng.Intn(2) == 0 {
		o.FulfillOn = EffectDeny
	}
	if rng.Intn(2) == 0 {
		o.Params = map[string]string{"node": node}
	}
	return o
}

// acplaneShape is the acplane workload's policy: the generator's set of 8
// policies of 25 rules, no nested set and no obligation.
func acplaneShape(seed uint64) (*PolicySet, *Generator) {
	params := DefaultGenParams()
	params.Policies, params.Rules = 8, 25
	gen := NewGenerator(seed, params)
	return gen.PolicySet("root", "v1"), gen
}

// walkMismatch reports how the walk's decision and obligations for r differ
// from the two-walk reference's, or nil when they are equal.
func walkMismatch(ps *PolicySet, r *Request) (Decision, []Obligation, error) {
	d, obls := ps.decide(r)
	want := refSet(ps, r)
	if d != want {
		return d, obls, fmt.Errorf("decision %s, reference %s", d, want)
	}
	if wantObls := refCollectObligations(ps, r, want.Simple()); !reflect.DeepEqual(obls, wantObls) {
		return d, obls, fmt.Errorf("%s: obligations\n got %v\nwant %v", d, obls, wantObls)
	}
	return d, obls, nil
}

// settleTrace follows the walk's stop rule over the reference's decisions,
// descending only into the children the walk evaluates. stopped records a
// child left unevaluated after its parent's decision settled; kept, one
// evaluated after that only because it carries an obligation on the
// settled effect; conds counts the rule conditions the walk evaluates.
type settleTrace struct {
	stopped, kept bool
	conds         int
}

// refSettles is the stop rule: whether child decision d settles alg's
// combined decision, and the effect whose obligations later children may
// still add (none after a first-applicable Indeterminate).
func refSettles(alg CombiningAlg, d Decision) (bool, Effect) {
	switch {
	case d == NotApplicable:
		return false, 0
	case alg == FirstApplicable:
		return true, decisionEffect(d)
	case (alg == DenyOverrides || alg == PermitUnlessDeny) && d == Deny:
		return true, EffectDeny
	case (alg == PermitOverrides || alg == DenyUnlessPermit) && d == Permit:
		return true, EffectPermit
	}
	return false, 0
}

// refFulfilled reports whether an obligation in obls is fulfilled on eff.
func refFulfilled(obls []Obligation, eff Effect) bool {
	return eff != 0 && len(appendFulfilledOn(nil, obls, eff)) > 0
}

// refObliges reports whether an obligation on eff sits anywhere in the
// child's subtree.
func refObliges(pi PolicyItem, eff Effect) bool {
	if p := pi.Policy; p != nil {
		for _, ru := range p.Rules {
			if refFulfilled(ru.Obligs, eff) {
				return true
			}
		}
		return refFulfilled(p.Obligs, eff)
	}
	if ps := pi.Set; ps != nil {
		for _, item := range ps.Items {
			if refObliges(item, eff) {
				return true
			}
		}
		return refFulfilled(ps.Obligs, eff)
	}
	return false
}

func (st *settleTrace) item(pi PolicyItem, r *Request) {
	if p := pi.Policy; p != nil && p.Target.Evaluate(r) != MatchNo {
		settled, owed := false, Effect(0)
		for _, ru := range p.Rules {
			if st.skips(settled, refFulfilled(ru.Obligs, owed)) {
				continue
			}
			if ru.Condition != nil && ru.Target.Evaluate(r) == MatchYes {
				st.conds++
			}
			if !settled {
				settled, owed = refSettles(p.Alg, refRule(ru, r))
			}
		}
	}
	if ps := pi.Set; ps != nil && ps.Target.Evaluate(r) != MatchNo {
		if ps.Alg == OnlyOneApplicable {
			if selected, _ := refSelect(ps, r); selected >= 0 {
				st.item(ps.Items[selected], r)
			}
			return
		}
		settled, owed := false, Effect(0)
		for _, child := range ps.Items {
			if st.skips(settled, refObliges(child, owed)) {
				continue
			}
			st.item(child, r)
			if !settled {
				settled, owed = refSettles(ps.Alg, refItem(child, r))
			}
		}
	}
}

// skips reports whether the walk leaves a child unevaluated, given whether
// its parent's decision has settled and whether the child carries an
// obligation on the settled effect, and records which way a child after a
// settled decision went.
func (st *settleTrace) skips(settled, obliges bool) bool {
	switch {
	case !settled:
		return false
	case obliges:
		st.kept = true
		return false
	}
	st.stopped = true
	return true
}

// countedExpr is a rule condition that counts its evaluations.
type countedExpr struct {
	Expr
	n *int
}

func (e countedExpr) Eval(r *Request) (bool, error) {
	*e.n++
	return e.Expr.Eval(r)
}

// countConditions wraps every rule condition in ps so that the returned
// counter counts their evaluations.
func countConditions(ps *PolicySet) *int {
	n := new(int)
	var wrap func(pi PolicyItem)
	wrap = func(pi PolicyItem) {
		if pi.Policy != nil {
			for _, ru := range pi.Policy.Rules {
				if ru.Condition != nil {
					ru.Condition = countedExpr{Expr: ru.Condition, n: n}
				}
			}
		}
		if pi.Set != nil {
			for _, item := range pi.Set.Items {
				wrap(item)
			}
		}
	}
	wrap(PolicyItem{Set: ps})
	return n
}

// The walk's decision and obligations equal the two-walk reference's on
// generated policies of three shapes, and the PDP hands over the walk's
// list. The walk evaluates exactly the rule conditions the stop rule says
// it reaches. The shapes are chosen so that the walk both stops at a
// settled decision and is kept going past one by a later obligation, and
// the test fails if either never happens.
func TestWalkMatchesTwoWalkReference(t *testing.T) {
	shapes := []struct {
		name            string
		seeds, requests int
		build           func(seed uint64) (*PolicySet, *Generator)
		wantKept        bool // the shape has obligations that can keep a walk going
	}{
		{"dense", 200, 300, func(seed uint64) (*PolicySet, *Generator) {
			return obligedPolicySet(seed, DefaultGenParams(), denseObligations)
		}, true},
		{"acplane", 20, 200, acplaneShape, false},
		{"sparse", 100, 200, func(seed uint64) (*PolicySet, *Generator) {
			return obligedPolicySet(seed, DefaultGenParams(), sparseObligations(0.05))
		}, true},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			seeds := shape.seeds
			if testing.Short() {
				seeds /= 10
			}
			var withObligations, onlyOneDecided, stopped, kept int
			for seed := 1; seed <= seeds; seed++ {
				ps, gen := shape.build(uint64(seed))
				conds := countConditions(ps)
				pdp := NewPDP(ps)
				for i := 0; i < shape.requests; i++ {
					r := gen.Request("r")
					d, obls, err := walkMismatch(ps, r)
					if err != nil {
						t.Fatalf("seed %d request %d: %v", seed, i, err)
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
					var st settleTrace
					st.item(PolicyItem{Set: ps}, r)
					*conds = 0
					ps.decide(r)
					if *conds != st.conds {
						t.Fatalf("seed %d request %d: the walk evaluated %d conditions, the stop rule reaches %d", seed, i, *conds, st.conds)
					}
					if st.stopped {
						stopped++
					}
					if st.kept {
						kept++
					}
				}
			}
			t.Logf("%d walks: %d stopped early, %d kept going by a later obligation, %d with obligations",
				seeds*shape.requests, stopped, kept, withObligations)
			if stopped == 0 || shape.wantKept && (kept == 0 || withObligations == 0 || onlyOneDecided == 0) {
				t.Fatalf("coverage: %d walks stopped early, %d kept going, %d decisions carried obligations, %d only-one-applicable sets decided",
					stopped, kept, withObligations, onlyOneDecided)
			}
		})
	}
}

// FuzzWalkMatchesReference compares the walk with the two-walk reference on
// generated policies of any size and obligation density: seed draws the
// policy, its algorithms and twenty requests; obligationPct is the percent
// of nodes given an obligation.
func FuzzWalkMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(3), uint8(5))
	f.Add(uint64(42), uint8(25), uint8(8), uint8(0))
	f.Add(uint64(7), uint8(2), uint8(2), uint8(60))
	f.Add(uint64(9), uint8(12), uint8(4), uint8(100))
	f.Fuzz(func(t *testing.T, seed uint64, rules, policies, obligationPct uint8) {
		params := DefaultGenParams()
		params.Rules, params.Policies = 1+int(rules%32), 1+int(policies%8)
		ps, gen := obligedPolicySet(seed, params, sparseObligations(float64(obligationPct%101)/100))
		for i := 0; i < 20; i++ {
			if _, _, err := walkMismatch(ps, gen.Request("r")); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
	})
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

// probe is a rule condition that counts its evaluations and answers val,
// or err when set (the rule is then Indeterminate).
type probe struct {
	ConstExpr
	calls int
	err   error
}

func (p *probe) Eval(*Request) (bool, error) {
	p.calls++
	return p.Val, p.err
}

// The walk stops at the child that settles the decision, at policy and at
// set level, for each of the five ordered algorithms; a later child is
// evaluated only for an obligation on the settled effect; only-one-
// applicable evaluates the one applicable child. Counted, not timed.
func TestWalkStopsWhenSettled(t *testing.T) {
	r := NewRequest("r")
	errIndeterminate := errors.New("indeterminate")
	type child struct {
		rule *Rule
		cond *probe
	}
	mk := func(eff Effect, val bool, err error, obls ...Obligation) child {
		cond := &probe{ConstExpr: ConstExpr{Val: val}, err: err}
		return child{&Rule{ID: fmt.Sprintf("r-%s-%t", eff, val), Effect: eff, Condition: cond, Obligs: obls}, cond}
	}
	asPolicy := func(alg CombiningAlg, cs ...child) *Policy {
		p := &Policy{ID: "p", Alg: alg}
		for _, c := range cs {
			p.Rules = append(p.Rules, c.rule)
		}
		return p
	}
	// asSet makes each child a one-rule policy of its own under alg.
	asSet := func(alg CombiningAlg, cs ...child) *PolicySet {
		ps := &PolicySet{ID: "s", Alg: alg}
		for _, c := range cs {
			ps.Items = append(ps.Items, PolicyItem{Policy: asPolicy(FirstApplicable, c)})
		}
		return ps
	}
	other := map[Effect]Effect{EffectPermit: EffectDeny, EffectDeny: EffectPermit}
	oblig := func(eff Effect) Obligation { return Obligation{ID: "o-" + eff.String(), FulfillOn: eff} }

	cases := []struct {
		alg             CombiningAlg
		before, settler Decision // before: a decision that does not settle alg
		err             error    // the settler's condition error (an Indeterminate settler)
		want            Decision
	}{
		{DenyOverrides, Permit, Deny, nil, Deny},
		{PermitUnlessDeny, Permit, Deny, nil, Deny},
		{PermitOverrides, Deny, Permit, nil, Permit},
		{DenyUnlessPermit, Deny, Permit, nil, Permit},
		{FirstApplicable, NotApplicable, Deny, nil, Deny},
		{FirstApplicable, NotApplicable, Permit, errIndeterminate, IndeterminateDP},
	}
	effectOf := func(d Decision) Effect {
		if d == Deny {
			return EffectDeny
		}
		return EffectPermit
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%s", tc.alg, tc.want)
		eff := effectOf(tc.settler)
		fresh := func() (before, settler, after child) {
			before = mk(effectOf(tc.before), tc.before != NotApplicable, nil)
			settler = mk(eff, true, tc.err)
			after = mk(eff, true, nil)
			return
		}
		for _, level := range []string{"policy", "set"} {
			before, settler, after := fresh()
			var d Decision
			if level == "policy" {
				d, _ = asPolicy(tc.alg, before, settler, after).decide(r)
			} else {
				d, _ = asSet(tc.alg, before, settler, after).decide(r)
			}
			if d != tc.want || before.cond.calls != 1 || settler.cond.calls != 1 || after.cond.calls != 0 {
				t.Errorf("%s at %s level: %s; evaluations before %d, settler %d, after %d (want %s; 1, 1, 0)",
					name, level, d, before.cond.calls, settler.cond.calls, after.cond.calls, tc.want)
			}
		}

		// After the settler: a plain child and one obliged on the other
		// effect are skipped, one obliged on the settled effect (at depth,
		// at set level) is evaluated and its obligation returned. A settled
		// Indeterminate returns no obligation, so it evaluates none.
		for _, level := range []string{"policy", "set"} {
			_, settler, plain := fresh()
			wrong := mk(other[eff], true, nil, oblig(other[eff]))
			owed := mk(eff, true, nil, oblig(eff))
			var d Decision
			var obls []Obligation
			if level == "policy" {
				d, obls = asPolicy(tc.alg, settler, plain, wrong, owed).decide(r)
			} else {
				ps := asSet(tc.alg, settler, plain, wrong)
				ps.Items = append(ps.Items, PolicyItem{Set: asSet(FirstApplicable, owed)})
				d, obls = ps.decide(r)
			}
			wantOwed, wantObls := 1, []Obligation{oblig(eff)}
			if tc.err != nil {
				wantOwed, wantObls = 0, nil
			}
			if d != tc.want || plain.cond.calls != 0 || wrong.cond.calls != 0 || owed.cond.calls != wantOwed || !reflect.DeepEqual(obls, wantObls) {
				t.Errorf("%s at %s level with obligations: %s %v; evaluations plain %d, other effect %d, settled effect %d (want %s %v; 0, 0, %d)",
					name, level, d, obls, plain.cond.calls, wrong.cond.calls, owed.cond.calls, tc.want, wantObls, wantOwed)
			}
		}
	}

	// Only-one-applicable evaluates its one applicable child, whole, and no
	// child when more than one applies.
	noMatch := Target{AnyOf: []AnyOf{{AllOf: []AllOf{{Matches: []Match{
		{Op: CmpEq, Attr: Designator{Cat: CatSubject, ID: "role"}, Lit: String("none")}}}}}}}
	skipped, permit, deny := mk(EffectPermit, true, nil), mk(EffectPermit, true, nil), mk(EffectDeny, true, nil, oblig(EffectDeny))
	unmatched := asPolicy(FirstApplicable, skipped)
	unmatched.Target = noMatch
	ps := &PolicySet{ID: "s", Alg: OnlyOneApplicable, Items: []PolicyItem{
		{Policy: unmatched}, {Policy: asPolicy(DenyOverrides, permit, deny)}}}
	if d, obls := ps.decide(r); d != Deny || !reflect.DeepEqual(obls, []Obligation{oblig(EffectDeny)}) ||
		skipped.cond.calls != 0 || permit.cond.calls != 1 || deny.cond.calls != 1 {
		t.Errorf("only-one-applicable: %s %v; evaluations unmatched %d, applicable %d and %d (want Deny; 0, 1, 1)",
			d, obls, skipped.cond.calls, permit.cond.calls, deny.cond.calls)
	}
	unmatched.Target = Target{}
	if d, _ := ps.decide(r); d != IndeterminateDP || skipped.cond.calls != 0 || permit.cond.calls != 1 {
		t.Errorf("only-one-applicable, two applicable: %s; evaluations %d, %d (want Indeterminate{DP}; 0, 1)",
			d, skipped.cond.calls, permit.cond.calls)
	}
}
