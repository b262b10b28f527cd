package xacml

import (
	"encoding/json"
	"testing"
)

func TestObligationsOnDenyPath(t *testing.T) {
	denyRule := &Rule{ID: "deny-interns", Effect: EffectDeny,
		Target: roleTarget("intern"),
		Obligs: []Obligation{{ID: "alert-security", FulfillOn: EffectDeny}}}
	pol := &Policy{ID: "p", Version: "1", Alg: FirstApplicable, Rules: []*Rule{denyRule}}
	ps := &PolicySet{ID: "s", Version: "1", Alg: PermitUnlessDeny,
		Items: []PolicyItem{{Policy: pol}}}
	pdp := NewPDP(ps)
	res, err := pdp.Evaluate(roleReq("intern"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Deny {
		t.Fatalf("decision = %s", res.Decision)
	}
	if len(res.Obligations) != 1 || res.Obligations[0].ID != "alert-security" {
		t.Fatalf("obligations = %v", res.Obligations)
	}
}

func TestUnknownCmpOpIsIndeterminate(t *testing.T) {
	m := Match{Op: CmpOp("~="), Attr: Designator{Cat: CatSubject, ID: "role"}, Lit: String("x")}
	r := roleReq("x")
	if got := m.Evaluate(r); got != MatchIndeterminate {
		t.Fatalf("unknown op = %s", got)
	}
	e := &CmpExpr{Op: CmpOp("~="), Attr: Designator{Cat: CatSubject, ID: "role"}, Lit: String("x")}
	if _, err := e.Eval(r); err == nil {
		t.Fatal("unknown op in condition did not error")
	}
}

func TestPrefixOpNeedsStrings(t *testing.T) {
	r := NewRequest("t").Add(CatSubject, "n", Int(5))
	e := &CmpExpr{Op: CmpPrefix, Attr: Designator{Cat: CatSubject, ID: "n"}, Lit: Int(5)}
	if _, err := e.Eval(r); err == nil {
		t.Fatal("prefix on ints accepted")
	}
}

func TestBagJSONRoundTrip(t *testing.T) {
	b := Bag{String("a"), Int(2), Bool(true)}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back Bag
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || !back.Contains(String("a")) || !back.Contains(Int(2)) || !back.Contains(Bool(true)) {
		t.Fatalf("round trip = %v", back)
	}
}

func TestEmptyPolicySetEvaluates(t *testing.T) {
	ps := &PolicySet{ID: "empty", Version: "1", Alg: DenyOverrides}
	if got := ps.Evaluate(NewRequest("x")); got != NotApplicable {
		t.Fatalf("empty set = %s", got)
	}
	// deny-unless-permit turns emptiness into Deny.
	ps.Alg = DenyUnlessPermit
	if got := ps.Evaluate(NewRequest("x")); got != Deny {
		t.Fatalf("empty deny-unless-permit = %s", got)
	}
}

func TestPolicyItemZeroValue(t *testing.T) {
	var pi PolicyItem
	if got := pi.Evaluate(NewRequest("x")); got != NotApplicable {
		t.Fatalf("empty item = %s", got)
	}
}

func TestOnlyOneApplicableAtRuleLevelIsAuthoringError(t *testing.T) {
	pol := &Policy{ID: "p", Version: "1", Alg: OnlyOneApplicable,
		Rules: []*Rule{{ID: "r", Effect: EffectPermit}}}
	if got := pol.Evaluate(NewRequest("x")); got != IndeterminateDP {
		t.Fatalf("rule-level only-one-applicable = %s", got)
	}
}

func TestCombiningAlgsEnumeration(t *testing.T) {
	if len(CombiningAlgs()) != 6 {
		t.Fatalf("algs = %v", CombiningAlgs())
	}
	if len(Categories()) != 4 {
		t.Fatalf("categories = %v", Categories())
	}
}

func TestTargetStringReadable(t *testing.T) {
	tgt := TargetMatching(CatSubject, "role", String("doctor"))
	s := tgt.String()
	if s == "" || s == "true" {
		t.Fatalf("target string = %q", s)
	}
	if (Target{}).String() != "true" {
		t.Fatal("empty target should render as true")
	}
}

func TestMatchResultString(t *testing.T) {
	for mr, want := range map[MatchResult]string{
		MatchNo: "NoMatch", MatchYes: "Match", MatchIndeterminate: "Indeterminate",
	} {
		if mr.String() != want {
			t.Errorf("%d.String() = %q", mr, mr.String())
		}
	}
}

func TestDecisionAndEffectStrings(t *testing.T) {
	if EffectPermit.String() != "Permit" || EffectDeny.String() != "Deny" {
		t.Fatal("effect strings wrong")
	}
	for d, want := range map[Decision]string{
		NotApplicable:   "NotApplicable",
		Permit:          "Permit",
		Deny:            "Deny",
		IndeterminateP:  "Indeterminate{P}",
		IndeterminateD:  "Indeterminate{D}",
		IndeterminateDP: "Indeterminate{DP}",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
}
