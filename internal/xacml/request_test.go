package xacml

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRequestAddGet(t *testing.T) {
	r := NewRequest("req-1")
	r.Add(CatSubject, "role", String("doctor")).
		Add(CatSubject, "role", String("admin")).
		Add(CatResource, "type", String("record"))
	roles := r.Get(CatSubject, "role")
	if len(roles) != 2 {
		t.Fatalf("roles = %v", roles)
	}
	if got := r.Get(CatAction, "missing"); !got.IsEmpty() {
		t.Fatalf("missing attr = %v", got)
	}
}

func TestRequestCloneIndependent(t *testing.T) {
	r := NewRequest("a")
	r.Add(CatSubject, "role", String("x"))
	c := r.Clone()
	c.Add(CatSubject, "role", String("y"))
	if len(r.Get(CatSubject, "role")) != 1 {
		t.Fatal("clone mutated original")
	}
	if c.ID != "a" {
		t.Fatal("clone lost ID")
	}
}

func TestRequestDigestContentOnly(t *testing.T) {
	a := NewRequest("id-1").Add(CatSubject, "role", String("x"))
	b := NewRequest("id-2").Add(CatSubject, "role", String("x"))
	if a.Digest() != b.Digest() {
		t.Fatal("digest should exclude correlation ID")
	}
	c := NewRequest("id-1").Add(CatSubject, "role", String("y"))
	if a.Digest() == c.Digest() {
		t.Fatal("different content same digest")
	}
}

func TestRequestDigestOrderInsensitive(t *testing.T) {
	a := NewRequest("1").
		Add(CatSubject, "role", String("x")).
		Add(CatSubject, "role", String("y")).
		Add(CatResource, "id", Int(7))
	b := NewRequest("1").
		Add(CatResource, "id", Int(7)).
		Add(CatSubject, "role", String("y")).
		Add(CatSubject, "role", String("x"))
	if a.Digest() != b.Digest() {
		t.Fatal("digest sensitive to insertion order")
	}
}

func TestRequestEncodeDecodeRoundTrip(t *testing.T) {
	for name, req := range wireRequests() {
		back, err := DecodeRequest(req.Encode())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameRequest(back, req) {
			t.Fatalf("%s: round trip changed the request:\n got %s\nwant %s", name, back.CanonicalBytes(), req.CanonicalBytes())
		}
	}
	// The zone offset survives, not only the instant.
	tm := wireRequests()["non-UTC time"].Get(CatEnvironment, "now")[0].Tm
	back, _ := DecodeRequest(wireRequests()["non-UTC time"].Encode())
	got := back.Get(CatEnvironment, "now")[0].Tm
	_, wantOff := tm.Zone()
	if _, off := got.Zone(); !got.Equal(tm) || off != wantOff {
		t.Fatalf("time = %v, want %v", got, tm)
	}
	// The sign of a zero survives.
	back, _ = DecodeRequest(wireRequests()["signed zero"].Encode())
	if f := back.Get(CatResource, "score")[0].F; !math.Signbit(f) {
		t.Fatalf("-0 decoded as %v", f)
	}
	// A present empty bag is not an absent attribute, so the round trip
	// above had something to keep.
	absent := NewRequest("r-empty").Add(CatAction, "op", String("read"))
	if bytes.Equal(absent.CanonicalBytes(), wireRequests()["empty bag present"].CanonicalBytes()) {
		t.Fatal("CanonicalBytes does not tell a present empty bag from an absent one")
	}
	if _, err := DecodeRequest([]byte("{bad")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestDesignatorResolve(t *testing.T) {
	r := NewRequest("1").Add(CatSubject, "role", String("x"))
	d := Designator{Cat: CatSubject, ID: "role"}
	bag, err := d.Resolve(r)
	if err != nil || len(bag) != 1 {
		t.Fatalf("resolve: %v %v", bag, err)
	}
	// Missing without MustBePresent → empty bag, no error.
	d2 := Designator{Cat: CatSubject, ID: "ghost"}
	bag, err = d2.Resolve(r)
	if err != nil || !bag.IsEmpty() {
		t.Fatalf("optional missing: %v %v", bag, err)
	}
	// Missing with MustBePresent → error.
	d3 := Designator{Cat: CatSubject, ID: "ghost", MustBePresent: true}
	if _, err := d3.Resolve(r); !errors.Is(err, ErrMissingAttribute) {
		t.Fatalf("got %v", err)
	}
}
