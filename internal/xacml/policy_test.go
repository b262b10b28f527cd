package xacml

import (
	"reflect"
	"testing"
)

// Convenience builders for tests.
func permitRule(id string, t Target, cond Expr) *Rule {
	return &Rule{ID: id, Effect: EffectPermit, Target: t, Condition: cond}
}
func denyRule(id string, t Target, cond Expr) *Rule {
	return &Rule{ID: id, Effect: EffectDeny, Target: t, Condition: cond}
}

func roleTarget(role string) Target {
	return TargetMatching(CatSubject, "role", String(role))
}

func roleReq(role string) *Request {
	return NewRequest("r").Add(CatSubject, "role", String(role))
}

// errTarget produces an Indeterminate target via MustBePresent on a missing
// attribute.
func errTarget() Target {
	return Target{AnyOf: []AnyOf{{AllOf: []AllOf{{Matches: []Match{{
		Op: CmpEq, Attr: Designator{Cat: CatSubject, ID: "ghost", MustBePresent: true}, Lit: String("x"),
	}}}}}}}
}

func TestRuleEvaluate(t *testing.T) {
	r := roleReq("doctor")
	cases := []struct {
		name string
		rule *Rule
		want Decision
	}{
		{"target match no cond permit", permitRule("a", roleTarget("doctor"), nil), Permit},
		{"target match no cond deny", denyRule("a", roleTarget("doctor"), nil), Deny},
		{"target no match", permitRule("a", roleTarget("nurse"), nil), NotApplicable},
		{"cond true", permitRule("a", Target{}, &ConstExpr{Val: true}), Permit},
		{"cond false", permitRule("a", Target{}, &ConstExpr{Val: false}), NotApplicable},
		{"cond error permit", permitRule("a", Target{},
			&CmpExpr{Op: CmpEq, Attr: Designator{Cat: CatSubject, ID: "ghost", MustBePresent: true}, Lit: Int(1)}),
			IndeterminateP},
		{"cond error deny", denyRule("a", Target{},
			&CmpExpr{Op: CmpEq, Attr: Designator{Cat: CatSubject, ID: "ghost", MustBePresent: true}, Lit: Int(1)}),
			IndeterminateD},
		{"target error permit", permitRule("a", errTarget(), nil), IndeterminateP},
		{"target error deny", denyRule("a", errTarget(), nil), IndeterminateD},
	}
	for _, c := range cases {
		if got := c.rule.Evaluate(r); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func policyWith(alg CombiningAlg, rules ...*Rule) *Policy {
	return &Policy{ID: "p", Version: "1", Alg: alg, Rules: rules}
}

func TestDenyOverridesTable(t *testing.T) {
	r := roleReq("doctor")
	pr := permitRule("p", Target{}, nil)
	dr := denyRule("d", Target{}, nil)
	na := permitRule("na", roleTarget("nobody"), nil)
	indP := permitRule("ip", errTarget(), nil)
	indD := denyRule("id", errTarget(), nil)

	cases := []struct {
		name  string
		rules []*Rule
		want  Decision
	}{
		{"deny wins over permit", []*Rule{pr, dr}, Deny},
		{"permit alone", []*Rule{pr, na}, Permit},
		{"all NA", []*Rule{na}, NotApplicable},
		{"empty", nil, NotApplicable},
		{"indetD alone", []*Rule{indD, na}, IndeterminateD},
		{"indetP alone", []*Rule{indP}, IndeterminateP},
		{"indetD + permit → indetDP", []*Rule{indD, pr}, IndeterminateDP},
		{"indetD + indetP → indetDP", []*Rule{indD, indP}, IndeterminateDP},
		{"deny dominates indeterminates", []*Rule{indD, indP, dr}, Deny},
		{"permit + indetP → permit", []*Rule{pr, indP}, Permit},
	}
	for _, c := range cases {
		if got := policyWith(DenyOverrides, c.rules...).Evaluate(r); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPermitOverridesTable(t *testing.T) {
	r := roleReq("doctor")
	pr := permitRule("p", Target{}, nil)
	dr := denyRule("d", Target{}, nil)
	na := permitRule("na", roleTarget("nobody"), nil)
	indP := permitRule("ip", errTarget(), nil)
	indD := denyRule("id", errTarget(), nil)

	cases := []struct {
		name  string
		rules []*Rule
		want  Decision
	}{
		{"permit wins over deny", []*Rule{dr, pr}, Permit},
		{"deny alone", []*Rule{dr, na}, Deny},
		{"indetP + deny → indetDP", []*Rule{indP, dr}, IndeterminateDP},
		{"indetP alone", []*Rule{indP}, IndeterminateP},
		{"indetD alone", []*Rule{indD}, IndeterminateD},
		{"deny + indetD → deny", []*Rule{dr, indD}, Deny},
	}
	for _, c := range cases {
		if got := policyWith(PermitOverrides, c.rules...).Evaluate(r); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFirstApplicable(t *testing.T) {
	r := roleReq("doctor")
	cases := []struct {
		name  string
		rules []*Rule
		want  Decision
	}{
		{"first match wins", []*Rule{
			permitRule("skip", roleTarget("nurse"), nil),
			denyRule("hit", roleTarget("doctor"), nil),
			permitRule("later", Target{}, nil),
		}, Deny},
		{"error stops", []*Rule{
			permitRule("err", errTarget(), nil),
			permitRule("later", Target{}, nil),
		}, IndeterminateDP},
		{"none applicable", []*Rule{permitRule("na", roleTarget("x"), nil)}, NotApplicable},
	}
	for _, c := range cases {
		if got := policyWith(FirstApplicable, c.rules...).Evaluate(r); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestDenyUnlessPermitAndDual(t *testing.T) {
	r := roleReq("doctor")
	na := permitRule("na", roleTarget("x"), nil)
	indP := permitRule("ip", errTarget(), nil)
	// deny-unless-permit never returns NA or Indeterminate.
	if got := policyWith(DenyUnlessPermit, na, indP).Evaluate(r); got != Deny {
		t.Fatalf("deny-unless-permit = %s", got)
	}
	if got := policyWith(DenyUnlessPermit, permitRule("p", Target{}, nil)).Evaluate(r); got != Permit {
		t.Fatalf("deny-unless-permit with permit = %s", got)
	}
	if got := policyWith(PermitUnlessDeny, na, indP).Evaluate(r); got != Permit {
		t.Fatalf("permit-unless-deny = %s", got)
	}
	if got := policyWith(PermitUnlessDeny, denyRule("d", Target{}, nil)).Evaluate(r); got != Deny {
		t.Fatalf("permit-unless-deny with deny = %s", got)
	}
}

func TestPolicyTargetGates(t *testing.T) {
	r := roleReq("doctor")
	p := policyWith(DenyOverrides, permitRule("p", Target{}, nil))
	p.Target = roleTarget("nurse")
	if got := p.Evaluate(r); got != NotApplicable {
		t.Fatalf("non-matching policy target: %s", got)
	}
	// Indeterminate target downgrades a Permit outcome to IndeterminateP.
	p.Target = errTarget()
	if got := p.Evaluate(r); got != IndeterminateP {
		t.Fatalf("indeterminate policy target: %s", got)
	}
	// ... and NA stays NA.
	p2 := policyWith(DenyOverrides, permitRule("na", roleTarget("x"), nil))
	p2.Target = errTarget()
	if got := p2.Evaluate(r); got != NotApplicable {
		t.Fatalf("indeterminate target over NA: %s", got)
	}
}

func TestPolicySetEvaluation(t *testing.T) {
	r := roleReq("doctor")
	permitP := policyWith(DenyOverrides, permitRule("p", Target{}, nil))
	denyP := policyWith(DenyOverrides, denyRule("d", Target{}, nil))
	ps := &PolicySet{ID: "s", Version: "1", Alg: DenyOverrides,
		Items: []PolicyItem{{Policy: permitP}, {Policy: denyP}}}
	if got := ps.Evaluate(r); got != Deny {
		t.Fatalf("set deny-overrides = %s", got)
	}
	ps.Alg = PermitOverrides
	if got := ps.Evaluate(r); got != Permit {
		t.Fatalf("set permit-overrides = %s", got)
	}
}

func TestNestedPolicySets(t *testing.T) {
	r := roleReq("doctor")
	inner := &PolicySet{ID: "inner", Version: "1", Alg: DenyUnlessPermit,
		Items: []PolicyItem{{Policy: policyWith(FirstApplicable, permitRule("p", roleTarget("doctor"), nil))}}}
	outer := &PolicySet{ID: "outer", Version: "1", Alg: FirstApplicable,
		Items: []PolicyItem{{Set: inner}}}
	if got := outer.Evaluate(r); got != Permit {
		t.Fatalf("nested = %s", got)
	}
}

func TestOnlyOneApplicable(t *testing.T) {
	r := roleReq("doctor")
	docP := policyWith(FirstApplicable, permitRule("p", Target{}, nil))
	docP.Target = roleTarget("doctor")
	nurseP := policyWith(FirstApplicable, denyRule("d", Target{}, nil))
	nurseP.Target = roleTarget("nurse")

	ps := &PolicySet{ID: "s", Version: "1", Alg: OnlyOneApplicable,
		Items: []PolicyItem{{Policy: docP}, {Policy: nurseP}}}
	if got := ps.Evaluate(r); got != Permit {
		t.Fatalf("one applicable = %s", got)
	}
	// Two applicable → IndeterminateDP.
	nurseP.Target = roleTarget("doctor")
	if got := ps.Evaluate(r); got != IndeterminateDP {
		t.Fatalf("two applicable = %s", got)
	}
	// None applicable → NotApplicable.
	docP.Target = roleTarget("x")
	nurseP.Target = roleTarget("y")
	if got := ps.Evaluate(r); got != NotApplicable {
		t.Fatalf("none applicable = %s", got)
	}
	// Target error → IndeterminateDP.
	docP.Target = errTarget()
	if got := ps.Evaluate(r); got != IndeterminateDP {
		t.Fatalf("error target = %s", got)
	}
}

func TestTargetSemantics(t *testing.T) {
	r := NewRequest("t").
		Add(CatSubject, "role", String("doctor")).
		Add(CatResource, "type", String("record"))
	m := func(cat Category, id AttributeID, v Value) Match {
		return Match{Op: CmpEq, Attr: Designator{Cat: cat, ID: id}, Lit: v}
	}
	// AllOf = AND.
	all := AllOf{Matches: []Match{m(CatSubject, "role", String("doctor")), m(CatResource, "type", String("record"))}}
	if all.Evaluate(r) != MatchYes {
		t.Fatal("AllOf AND failed")
	}
	allMiss := AllOf{Matches: []Match{m(CatSubject, "role", String("doctor")), m(CatResource, "type", String("scan"))}}
	if allMiss.Evaluate(r) != MatchNo {
		t.Fatal("AllOf with one miss should be NoMatch")
	}
	// AnyOf = OR.
	any := AnyOf{AllOf: []AllOf{allMiss, all}}
	if any.Evaluate(r) != MatchYes {
		t.Fatal("AnyOf OR failed")
	}
	// Empty target matches all.
	if (Target{}).Evaluate(r) != MatchYes {
		t.Fatal("empty target should match")
	}
	// Indeterminate propagation: NoMatch dominates Indeterminate in AllOf.
	errM := Match{Op: CmpEq, Attr: Designator{Cat: CatSubject, ID: "ghost", MustBePresent: true}, Lit: String("x")}
	allErrAndMiss := AllOf{Matches: []Match{errM, m(CatSubject, "role", String("other"))}}
	if got := allErrAndMiss.Evaluate(r); got != MatchNo {
		t.Fatalf("AllOf(err, miss) = %s, want NoMatch", got)
	}
	allErrAndHit := AllOf{Matches: []Match{errM, m(CatSubject, "role", String("doctor"))}}
	if got := allErrAndHit.Evaluate(r); got != MatchIndeterminate {
		t.Fatalf("AllOf(err, hit) = %s, want Indeterminate", got)
	}
	// Match dominates Indeterminate in AnyOf.
	anyErrOrHit := AnyOf{AllOf: []AllOf{allErrAndHit, all}}
	if got := anyErrOrHit.Evaluate(r); got != MatchYes {
		t.Fatalf("AnyOf(indet, match) = %s, want Match", got)
	}
}

func TestObligationsCollected(t *testing.T) {
	r := roleReq("doctor")
	ru := permitRule("p", Target{}, nil)
	ru.Obligs = []Obligation{{ID: "log-access", FulfillOn: EffectPermit}}
	pol := policyWith(DenyOverrides, ru)
	pol.Obligs = []Obligation{
		{ID: "notify-owner", FulfillOn: EffectPermit},
		{ID: "alert-denied", FulfillOn: EffectDeny},
	}
	ps := &PolicySet{ID: "s", Version: "1", Alg: DenyOverrides, Items: []PolicyItem{{Policy: pol}},
		Obligs: []Obligation{{ID: "audit", FulfillOn: EffectPermit}}}
	d, obls := ps.decide(r)
	if d != Permit {
		t.Fatalf("decision = %s", d)
	}
	// Set first, then the policy's own, then its rule's: the walk's order.
	var ids []string
	for _, o := range obls {
		ids = append(ids, o.ID)
	}
	if !reflect.DeepEqual(ids, []string{"audit", "notify-owner", "log-access"}) {
		t.Fatalf("obligations = %v", obls)
	}
	// The PDP hands over the same list with the decision.
	if res, err := NewPDP(ps).Evaluate(r); err != nil || !reflect.DeepEqual(res.Obligations, obls) {
		t.Fatalf("PDP obligations = %v, %v", res.Obligations, err)
	}
	// No obligations for NA decisions.
	ru.Target = roleTarget("nurse")
	if d, got := ps.decide(r); d != NotApplicable || got != nil {
		t.Fatalf("NA decision %s carries obligations %v", d, got)
	}
}

func TestPolicySetJSONRoundTripPreservesDecisions(t *testing.T) {
	gen := NewGenerator(11, DefaultGenParams())
	ps := gen.PolicySet("root", "v1")
	data := ps.Encode()
	back, err := DecodePolicySet(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != ps.Digest() {
		t.Fatal("round trip changed digest")
	}
	for i := 0; i < 200; i++ {
		r := gen.Request("r")
		if ps.Evaluate(r) != back.Evaluate(r) {
			t.Fatalf("decision diverged after round trip on request %d", i)
		}
	}
}

func TestDigestSensitivity(t *testing.T) {
	gen := NewGenerator(12, DefaultGenParams())
	ps := gen.PolicySet("root", "v1")
	d1 := ps.Digest()
	mutated := ps.Clone()
	mutated.Items[0].Policy.Rules[0].Effect = EffectDeny
	if mutated.Items[0].Policy.Rules[0].Effect == ps.Items[0].Policy.Rules[0].Effect {
		mutated.Items[0].Policy.Rules[0].Effect = EffectPermit
	}
	if mutated.Digest() == d1 {
		t.Fatal("rule effect flip did not change digest")
	}
	v2 := ps.Clone()
	v2.Version = "v2"
	if v2.Digest() == d1 {
		t.Fatal("version change did not change digest")
	}
}

func TestDecisionHelpers(t *testing.T) {
	if Permit.Simple() != Permit || Deny.Simple() != Deny || NotApplicable.Simple() != NotApplicable {
		t.Fatal("Simple changed determinate decisions")
	}
	for _, d := range []Decision{IndeterminateP, IndeterminateD, IndeterminateDP} {
		if !d.IsIndeterminate() || d.Simple() != IndeterminateDP {
			t.Fatalf("indeterminate helpers wrong for %s", d)
		}
	}
	if Permit.IsIndeterminate() {
		t.Fatal("Permit is not indeterminate")
	}
}

// Property: deny-overrides and permit-overrides are order-independent.
func TestOverridesOrderIndependenceProperty(t *testing.T) {
	gen := NewGenerator(77, DefaultGenParams())
	for trial := 0; trial < 40; trial++ {
		p := gen.Policy("p")
		p.Alg = DenyOverrides
		if trial%2 == 0 {
			p.Alg = PermitOverrides
		}
		rev := &Policy{ID: p.ID, Version: p.Version, Target: p.Target, Alg: p.Alg}
		for i := len(p.Rules) - 1; i >= 0; i-- {
			rev.Rules = append(rev.Rules, p.Rules[i])
		}
		for i := 0; i < 30; i++ {
			r := gen.Request("r")
			if p.Evaluate(r) != rev.Evaluate(r) {
				t.Fatalf("%s order dependence: %s vs %s", p.Alg, p.Evaluate(r), rev.Evaluate(r))
			}
		}
	}
}

// Property: deny-unless-permit and permit-unless-deny are always
// determinate.
func TestUnlessAlgsAlwaysDeterminateProperty(t *testing.T) {
	params := DefaultGenParams()
	params.MustBePresentRate = 0.5 // force lots of Indeterminates
	gen := NewGenerator(78, params)
	for trial := 0; trial < 40; trial++ {
		p := gen.Policy("p")
		p.Target = Target{}
		p.Alg = DenyUnlessPermit
		q := &Policy{ID: "q", Version: "1", Alg: PermitUnlessDeny, Rules: p.Rules}
		for i := 0; i < 30; i++ {
			r := gen.Request("r")
			for _, d := range []Decision{p.Evaluate(r), q.Evaluate(r)} {
				if d != Permit && d != Deny {
					t.Fatalf("unless-alg returned %s", d)
				}
			}
		}
	}
}
