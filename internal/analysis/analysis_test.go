package analysis

import (
	"fmt"
	"testing"

	"drams/internal/xacml"
)

// The single most important test in this package: the analyser's normalised
// form must agree with the PDP on randomly generated policies and requests.
// This is the differential check underpinning the monitor's M5 detection —
// if the two implementations agreed only by construction (shared code), the
// check would be vacuous.
func TestDifferentialAnalyserVsPDP(t *testing.T) {
	shapes := []xacml.GenParams{
		{Rules: 3, Policies: 2, Attrs: 2, ValuesPerAttr: 3, MaxCondDepth: 2, MustBePresentRate: 0},
		{Rules: 6, Policies: 3, Attrs: 3, ValuesPerAttr: 4, MaxCondDepth: 3, MustBePresentRate: 0.15},
		{Rules: 10, Policies: 4, Attrs: 4, ValuesPerAttr: 5, MaxCondDepth: 2, MustBePresentRate: 0.3},
	}
	for si, shape := range shapes {
		for seed := uint64(0); seed < 8; seed++ {
			gen := xacml.NewGenerator(seed*131+uint64(si), shape)
			ps := gen.PolicySet(fmt.Sprintf("s%d-%d", si, seed), "v1")
			pdp := xacml.NewPDP(ps)
			compiled := Compile(ps)
			for i := 0; i < 150; i++ {
				r := gen.Request(fmt.Sprintf("r%d", i))
				res, err := pdp.Evaluate(r)
				if err != nil {
					t.Fatal(err)
				}
				exp := compiled.ExpectedSimple(r)
				if exp != res.Decision {
					t.Fatalf("shape %d seed %d req %d: PDP=%s analyser=%s\npolicy: %s",
						si, seed, i, res.Decision, exp, ps.Encode())
				}
			}
		}
	}
}

// Differential check over the abstract domain (covers systematically chosen
// boundary values rather than random ones).
func TestDifferentialOverAbstractDomain(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		gen := xacml.NewGenerator(900+seed, xacml.GenParams{
			Rules: 4, Policies: 2, Attrs: 2, ValuesPerAttr: 3, MaxCondDepth: 2, MustBePresentRate: 0.2})
		ps := gen.PolicySet("root", "v1")
		pdp := xacml.NewPDP(ps)
		compiled := Compile(ps)
		dom := ExtractDomain(ps)
		for _, r := range dom.Requests(EnumParams{MaxRequests: 3000, Seed: seed}) {
			res, err := pdp.Evaluate(r)
			if err != nil {
				t.Fatal(err)
			}
			if got := compiled.ExpectedSimple(r); got != res.Decision {
				t.Fatalf("seed %d: PDP=%s analyser=%s on %s", seed, res.Decision, got, r.CanonicalBytes())
			}
		}
	}
}

func docPolicy() *xacml.PolicySet {
	permitDoctors := &xacml.Rule{
		ID:     "permit-doctors",
		Effect: xacml.EffectPermit,
		Target: xacml.TargetMatching(xacml.CatSubject, "role", xacml.String("doctor")),
	}
	denyAll := &xacml.Rule{ID: "deny-rest", Effect: xacml.EffectDeny}
	pol := &xacml.Policy{ID: "p", Version: "1", Alg: xacml.FirstApplicable,
		Rules: []*xacml.Rule{permitDoctors, denyAll}}
	return &xacml.PolicySet{ID: "root", Version: "v1", Alg: xacml.DenyUnlessPermit,
		Items: []xacml.PolicyItem{{Policy: pol}}}
}

func TestExpectedDecisionKnownPolicy(t *testing.T) {
	c := Compile(docPolicy())
	doctor := xacml.NewRequest("1").Add(xacml.CatSubject, "role", xacml.String("doctor"))
	nurse := xacml.NewRequest("2").Add(xacml.CatSubject, "role", xacml.String("nurse"))
	empty := xacml.NewRequest("3")
	if got := c.ExpectedSimple(doctor); got != xacml.Permit {
		t.Fatalf("doctor = %s", got)
	}
	if got := c.ExpectedSimple(nurse); got != xacml.Deny {
		t.Fatalf("nurse = %s", got)
	}
	if got := c.ExpectedSimple(empty); got != xacml.Deny {
		t.Fatalf("empty = %s", got)
	}
}

func TestVerifyDecision(t *testing.T) {
	c := Compile(docPolicy())
	doctor := xacml.NewRequest("1").Add(xacml.CatSubject, "role", xacml.String("doctor"))
	// The analyser's check: a reported decision agrees when it is the
	// expectation on the four-valued lattice.
	if got := c.ExpectedSimple(doctor); got != xacml.Permit.Simple() {
		t.Fatalf("correct decision rejected: expected %s", got)
	}
	if c.ExpectedSimple(doctor) == xacml.Deny.Simple() {
		t.Fatal("wrong decision accepted")
	}
}

func TestDomainExtractionCoversConstantsAndBoundaries(t *testing.T) {
	cond := &xacml.AndExpr{Args: []xacml.Expr{
		&xacml.CmpExpr{Op: xacml.CmpGe, Attr: xacml.Designator{Cat: xacml.CatEnvironment, ID: "hour"}, Lit: xacml.Int(8)},
		&xacml.CmpExpr{Op: xacml.CmpLt, Attr: xacml.Designator{Cat: xacml.CatEnvironment, ID: "hour"}, Lit: xacml.Int(18)},
	}}
	ru := &xacml.Rule{ID: "office-hours", Effect: xacml.EffectPermit, Condition: cond,
		Target: xacml.TargetMatching(xacml.CatSubject, "role", xacml.String("clerk"))}
	ps := &xacml.PolicySet{ID: "s", Version: "1", Alg: xacml.DenyUnlessPermit,
		Items: []xacml.PolicyItem{{Policy: &xacml.Policy{ID: "p", Version: "1",
			Alg: xacml.FirstApplicable, Rules: []*xacml.Rule{ru}}}}}
	dom := ExtractDomain(ps)
	if len(dom.attrs) != 2 {
		t.Fatalf("attrs = %d", len(dom.attrs))
	}
	reqs := dom.Requests(DefaultEnumParams())
	// hour domain: {7,8,9,17,18,19, fresh-int, fresh-string?} — at minimum
	// the threshold neighbours must appear.
	sawHour := map[int64]bool{}
	for _, r := range reqs {
		for _, v := range r.Get(xacml.CatEnvironment, "hour") {
			if v.T == xacml.TypeInt {
				sawHour[v.I] = true
			}
		}
	}
	for _, want := range []int64{7, 8, 9, 17, 18, 19} {
		if !sawHour[want] {
			t.Errorf("domain missing boundary hour %d (saw %v)", want, sawHour)
		}
	}
}

func TestDomainEnumerationExhaustiveWhenSmall(t *testing.T) {
	ps := docPolicy()
	dom := ExtractDomain(ps)
	size := dom.Size()
	reqs := dom.Requests(EnumParams{MaxRequests: size + 10})
	if len(reqs) != size {
		t.Fatalf("enumerated %d, domain size %d", len(reqs), size)
	}
	// All distinct.
	seen := map[string]bool{}
	for _, r := range reqs {
		k := string(r.CanonicalBytes())
		if seen[k] {
			t.Fatalf("duplicate abstract request %q", k)
		}
		seen[k] = true
	}
}

func TestDomainSamplingBounded(t *testing.T) {
	gen := xacml.NewGenerator(4, xacml.GenParams{Rules: 10, Policies: 5, Attrs: 6, ValuesPerAttr: 6, MaxCondDepth: 3})
	ps := gen.PolicySet("big", "1")
	dom := ExtractDomain(ps)
	reqs := dom.Requests(EnumParams{MaxRequests: 500, Seed: 9})
	if len(reqs) > 500 {
		t.Fatalf("sampling exceeded cap: %d", len(reqs))
	}
}

func TestCompletenessIncompletePolicy(t *testing.T) {
	// Only doctors are mentioned: everyone else is NotApplicable under
	// first-applicable without a default rule.
	pol := &xacml.Policy{ID: "p", Version: "1", Alg: xacml.FirstApplicable,
		Rules: []*xacml.Rule{{
			ID: "permit-doctors", Effect: xacml.EffectPermit,
			Target: xacml.TargetMatching(xacml.CatSubject, "role", xacml.String("doctor")),
		}}}
	ps := &xacml.PolicySet{ID: "s", Version: "1", Alg: xacml.FirstApplicable,
		Items: []xacml.PolicyItem{{Policy: pol}}}
	rep := CheckCompleteness(Compile(ps), ExtractDomain(ps), DefaultEnumParams())
	if rep.Complete {
		t.Fatal("incomplete policy reported complete")
	}
	if rep.NotApplicable == 0 || len(rep.NAWitnesses) == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCompletenessCompletePolicy(t *testing.T) {
	rep := CheckCompleteness(Compile(docPolicy()), ExtractDomain(docPolicy()), DefaultEnumParams())
	if !rep.Complete {
		t.Fatalf("deny-unless-permit policy must be complete: %+v NA witnesses %v", rep, rep.NAWitnesses)
	}
}

func TestChangeImpactDetectsWidening(t *testing.T) {
	before := docPolicy()
	after := docPolicy()
	after.Version = "v2"
	// v2 additionally permits nurses.
	nurseRule := &xacml.Rule{
		ID:     "permit-nurses",
		Effect: xacml.EffectPermit,
		Target: xacml.TargetMatching(xacml.CatSubject, "role", xacml.String("nurse")),
	}
	pol := after.Items[0].Policy
	pol.Rules = append([]*xacml.Rule{nurseRule}, pol.Rules...)
	rep := ChangeImpact(before, after, DefaultEnumParams())
	if rep.Equivalent || rep.Differences == 0 {
		t.Fatalf("widening not detected: %+v", rep)
	}
	// Every witness must involve a nurse request flipping Deny → Permit.
	for _, w := range rep.Witnesses {
		if w.Before != xacml.Deny || w.After != xacml.Permit {
			t.Fatalf("unexpected witness: %s", w)
		}
		if !w.Request.Get(xacml.CatSubject, "role").Contains(xacml.String("nurse")) {
			t.Fatalf("witness without nurse role: %s", w)
		}
	}
}

func TestChangeImpactEquivalentPolicies(t *testing.T) {
	before := docPolicy()
	after := docPolicy()
	after.Version = "v2" // version differs, semantics identical
	rep := ChangeImpact(before, after, DefaultEnumParams())
	if !rep.Equivalent || rep.Differences != 0 {
		t.Fatalf("equivalent versions reported different: %+v", rep.Witnesses)
	}
}

func TestChangeImpactReorderUnderDenyOverrides(t *testing.T) {
	// Reordering rules under deny-overrides is semantics-preserving.
	gen := xacml.NewGenerator(31, xacml.GenParams{Rules: 5, Policies: 1, Attrs: 2, ValuesPerAttr: 3, MaxCondDepth: 2})
	before := gen.PolicySet("root", "v1")
	before.Alg = xacml.DenyOverrides
	for _, item := range before.Items {
		item.Policy.Alg = xacml.DenyOverrides
	}
	after := before.Clone()
	after.Version = "v2"
	rules := after.Items[0].Policy.Rules
	for i, j := 0, len(rules)-1; i < j; i, j = i+1, j-1 {
		rules[i], rules[j] = rules[j], rules[i]
	}
	rep := ChangeImpact(before, after, DefaultEnumParams())
	if !rep.Equivalent {
		t.Fatalf("deny-overrides reorder changed semantics: %v", rep.Witnesses)
	}
}

func TestCheckRedundancy(t *testing.T) {
	// Rule "dup" duplicates "permit-doctors" and is redundant; the default
	// deny is not.
	dup := &xacml.Rule{ID: "dup", Effect: xacml.EffectPermit,
		Target: xacml.TargetMatching(xacml.CatSubject, "role", xacml.String("doctor"))}
	ps := docPolicy()
	pol := ps.Items[0].Policy
	pol.Alg = xacml.DenyOverrides // order-insensitive so dup is fully shadowed
	pol.Rules = append(pol.Rules, dup)
	rep := CheckRedundancy(ps, DefaultEnumParams())
	found := map[string]bool{}
	for _, id := range rep.RedundantRules {
		found[id] = true
	}
	if !found["dup"] {
		t.Fatalf("dup not reported redundant: %+v", rep)
	}
	if found["deny-rest"] {
		t.Fatal("deny-rest wrongly reported redundant")
	}
}

func TestCompiledHandlesNestedSetsAndOnlyOne(t *testing.T) {
	docP := &xacml.Policy{ID: "docs", Version: "1", Alg: xacml.FirstApplicable,
		Target: xacml.TargetMatching(xacml.CatSubject, "role", xacml.String("doctor")),
		Rules:  []*xacml.Rule{{ID: "p", Effect: xacml.EffectPermit}}}
	nurseP := &xacml.Policy{ID: "nurses", Version: "1", Alg: xacml.FirstApplicable,
		Target: xacml.TargetMatching(xacml.CatSubject, "role", xacml.String("nurse")),
		Rules:  []*xacml.Rule{{ID: "d", Effect: xacml.EffectDeny}}}
	inner := &xacml.PolicySet{ID: "inner", Version: "1", Alg: xacml.OnlyOneApplicable,
		Items: []xacml.PolicyItem{{Policy: docP}, {Policy: nurseP}}}
	root := &xacml.PolicySet{ID: "root", Version: "1", Alg: xacml.FirstApplicable,
		Items: []xacml.PolicyItem{{Set: inner}}}

	c := Compile(root)
	pdp := xacml.NewPDP(root)
	for _, role := range []string{"doctor", "nurse", "admin"} {
		r := xacml.NewRequest("x").Add(xacml.CatSubject, "role", xacml.String(role))
		res, _ := pdp.Evaluate(r)
		if got := c.ExpectedSimple(r); got != res.Decision {
			t.Fatalf("role %s: analyser %s vs PDP %s", role, got, res.Decision)
		}
	}
	// Both applicable (doctor AND nurse roles in one bag) → IndeterminateDP.
	r := xacml.NewRequest("x").
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatSubject, "role", xacml.String("nurse"))
	res, _ := pdp.Evaluate(r)
	if got := c.ExpectedSimple(r); got != res.Decision {
		t.Fatalf("dual role: analyser %s vs PDP %s", got, res.Decision)
	}
}
