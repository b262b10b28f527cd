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
