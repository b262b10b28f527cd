package xacml

import (
	"errors"
	"reflect"
	"testing"
)

func samplePolicySet() *PolicySet {
	// Doctors may read records; everyone else is denied.
	read := TargetMatching(CatAction, "op", String("read"))
	doctor := &Rule{ID: "doctor-read", Effect: EffectPermit,
		Target: roleTarget("doctor"),
		Condition: &CmpExpr{Op: CmpEq,
			Attr: Designator{Cat: CatAction, ID: "op"}, Lit: String("read")},
	}
	fallback := &Rule{ID: "default-deny", Effect: EffectDeny}
	pol := &Policy{ID: "records", Version: "1", Target: read, Alg: FirstApplicable,
		Rules: []*Rule{doctor, fallback}}
	return &PolicySet{ID: "root", Version: "v1", Alg: DenyUnlessPermit,
		Items: []PolicyItem{{Policy: pol}}}
}

func readReq(role string) *Request {
	return NewRequest("q").
		Add(CatSubject, "role", String(role)).
		Add(CatAction, "op", String("read"))
}

func TestPDPEvaluate(t *testing.T) {
	pdp := NewPDP(samplePolicySet())
	res, err := pdp.Evaluate(readReq("doctor"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Permit {
		t.Fatalf("doctor read = %s", res.Decision)
	}
	if res.PolicyID != "root" || res.PolicyVersion != "v1" || res.PolicyDigest.IsZero() {
		t.Fatalf("result metadata: %+v", res)
	}
	res2, _ := pdp.Evaluate(readReq("intern"))
	if res2.Decision != Deny {
		t.Fatalf("intern read = %s", res2.Decision)
	}
}

func TestPDPNoPolicy(t *testing.T) {
	pdp := NewPDP(nil)
	if _, err := pdp.Evaluate(readReq("doctor")); !errors.Is(err, ErrNoPolicy) {
		t.Fatalf("got %v", err)
	}
}

func TestPDPLoadIsolatesCallerMutation(t *testing.T) {
	ps := samplePolicySet()
	pdp := NewPDP(ps)
	before, _ := pdp.Evaluate(readReq("doctor"))
	// Caller mutates their copy after loading; PDP must be unaffected.
	ps.Items[0].Policy.Rules[0].Effect = EffectDeny
	after, _ := pdp.Evaluate(readReq("doctor"))
	if before.Decision != after.Decision {
		t.Fatal("PDP affected by caller mutation after Load")
	}
}

func TestPDPHotSwap(t *testing.T) {
	pdp := NewPDP(samplePolicySet())
	res, _ := pdp.Evaluate(readReq("doctor"))
	if res.Decision != Permit {
		t.Fatal("precondition failed")
	}
	// New policy version denies everything.
	v2 := &PolicySet{ID: "root", Version: "v2", Alg: PermitUnlessDeny,
		Items: []PolicyItem{{Policy: &Policy{ID: "deny-all", Version: "1", Alg: FirstApplicable,
			Rules: []*Rule{{ID: "d", Effect: EffectDeny}}}}}}
	pdp.Load(v2)
	res2, _ := pdp.Evaluate(readReq("doctor"))
	if res2.Decision != Deny || res2.PolicyVersion != "v2" {
		t.Fatalf("after swap: %+v", res2)
	}
	if res.PolicyDigest == res2.PolicyDigest {
		t.Fatal("digest did not change with policy version")
	}
}

func TestResultDigestCoversDecision(t *testing.T) {
	pdp := NewPDP(samplePolicySet())
	res, _ := pdp.Evaluate(readReq("doctor"))
	tampered := res
	tampered.Decision = Deny
	if res.Digest() == tampered.Digest() {
		t.Fatal("digest does not cover decision")
	}
	t2 := res
	t2.PolicyVersion = "vX"
	if res.Digest() == t2.Digest() {
		t.Fatal("digest does not cover policy version")
	}
}

func TestResultEncodeDecodeRoundTrip(t *testing.T) {
	pdp := NewPDP(samplePolicySet())
	res, _ := pdp.Evaluate(readReq("doctor"))
	back, err := DecodeResult(res.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != res.Digest() {
		t.Fatal("round trip changed digest")
	}
	for name, res := range wireResults() {
		back, err := DecodeResult(res.Encode())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("%s: round trip = %+v, want %+v", name, back, res)
		}
	}
	if _, err := DecodeResult([]byte("{")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(5, DefaultGenParams())
	b := NewGenerator(5, DefaultGenParams())
	psA := a.PolicySet("x", "1")
	psB := b.PolicySet("x", "1")
	if psA.Digest() != psB.Digest() {
		t.Fatal("generator not deterministic")
	}
	rA := a.Request("r")
	rB := b.Request("r")
	if rA.Digest() != rB.Digest() {
		t.Fatal("request generator not deterministic")
	}
}

func TestGeneratedPoliciesEvaluateWithoutPanic(t *testing.T) {
	gen := NewGenerator(99, GenParams{Rules: 8, Policies: 4, Attrs: 4, ValuesPerAttr: 5, MaxCondDepth: 3, MustBePresentRate: 0.2})
	ps := gen.PolicySet("root", "1")
	pdp := NewPDP(ps)
	counts := map[Decision]int{}
	for i := 0; i < 500; i++ {
		res, err := pdp.Evaluate(gen.Request("r"))
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Decision]++
	}
	// A healthy random policy shape yields a mix of outcomes.
	if len(counts) < 2 {
		t.Fatalf("decision distribution suspiciously uniform: %v", counts)
	}
}
