package xacml

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"drams/internal/crypto"
	"drams/internal/idgen"
)

// referenceCanonicalBytes is CanonicalBytes as it was written before it
// sorted in stack arrays: a heap slice of names per level and a heap string
// per value key, ordered by sort.Strings. It is the reference the digest must
// match byte for byte, since the PEP and the PDP probes log it (M1) and the
// decision cache keys on it.
func referenceCanonicalBytes(r *Request) []byte {
	buf := make([]byte, 0, 256)
	cats := make([]string, 0, len(r.Attrs))
	for c := range r.Attrs {
		cats = append(cats, string(c))
	}
	sort.Strings(cats)
	for _, c := range cats {
		m := r.Attrs[Category(c)]
		ids := make([]string, 0, len(m))
		for id := range m {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		for _, id := range ids {
			bag := m[AttributeID(id)]
			buf = append(buf, c...)
			buf = append(buf, '/')
			buf = append(buf, id...)
			buf = append(buf, '=', '[')
			vals := make([]string, len(bag))
			for i, v := range bag {
				vals[i] = v.Key()
			}
			sort.Strings(vals)
			buf = append(buf, strings.Join(vals, ",")...)
			buf = append(buf, ']', ';')
		}
	}
	return buf
}

// acplaneRequests draws n requests of the benchmark's acplane shape: the
// generator's default vocabulary (four categories of three attributes, each
// absent, single or a pair of string or int values) under the 8 x 25 policy
// parameters.
func acplaneRequests(n int) []*Request {
	params := DefaultGenParams()
	params.Policies, params.Rules = 8, 25
	g := NewGenerator(7, params)
	out := make([]*Request, n)
	for i := range out {
		out[i] = g.Request(fmt.Sprintf("ac-%d", i))
	}
	return out
}

// randomValue draws a value of any of the five types, favouring the
// encodings with edge cases: a zoned time, extreme and signed floats, and
// strings that need quoting.
func randomValue(rng *idgen.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		strs := []string{"", "doctor", `say "hi"`, "tab\there", "new\nline", "é", "\x00", "\xff", "back\\slash",
			strings.Repeat("long-", 20)}
		return String(strs[rng.Intn(len(strs))])
	case 1:
		ints := []int64{0, -1, 7, math.MaxInt64, math.MinInt64}
		return Int(ints[rng.Intn(len(ints))])
	case 2:
		floats := []float64{0, math.Copysign(0, -1), 2.5, math.MaxFloat64, -math.MaxFloat64,
			math.SmallestNonzeroFloat64, 1e21, 1e-7}
		return Float(floats[rng.Intn(len(floats))])
	case 3:
		return Bool(rng.Intn(2) == 0)
	default:
		zones := []*time.Location{time.UTC, time.FixedZone("", -(4*3600 + 30*60)), time.FixedZone("X", 14*3600)}
		tm := time.Date(rng.Intn(10000), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
			rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(1e9), zones[rng.Intn(len(zones))])
		return Value{T: TypeTime, Tm: tm}
	}
}

// randomRequest draws a request whose counts reach past appendCanonical's
// stack arrays (8 categories, 16 attributes, 16 values), with empty bags and
// repeated values.
func randomRequest(rng *idgen.Rand, id string) *Request {
	r := NewRequest(id)
	for c := rng.Intn(11); c > 0; c-- {
		cat := Category(fmt.Sprintf("cat%d", rng.Intn(12)))
		if r.Attrs[cat] == nil {
			r.Attrs[cat] = map[AttributeID]Bag{}
		}
		for a := rng.Intn(19); a > 0; a-- {
			attr := AttributeID(fmt.Sprintf("attr%d", rng.Intn(24)))
			bag := Bag{}
			for v := rng.Intn(19); v > 0; v-- {
				bag = append(bag, randomValue(rng))
			}
			r.Attrs[cat][attr] = bag
		}
	}
	return r
}

// canonicalCases are the requests the digest is checked on: the wire
// tables, acplane's shape, each stack array's overflow alone, and random
// requests.
func canonicalCases() map[string]*Request {
	cases := map[string]*Request{}
	for name, r := range wireRequests() {
		cases["wire/"+name] = r
	}
	for i, r := range acplaneRequests(20) {
		cases[fmt.Sprintf("acplane/%d", i)] = r
	}
	many := NewRequest("many categories")
	for i := 0; i < 10; i++ {
		many.Add(Category(fmt.Sprintf("c%d", 9-i)), "a", Int(int64(i)))
	}
	wide := NewRequest("wide category")
	for i := 0; i < 20; i++ {
		wide.Add(CatSubject, AttributeID(fmt.Sprintf("a%02d", 19-i)), Int(int64(i)))
	}
	big := NewRequest("large bag")
	for i := 0; i < 20; i++ {
		// 20 keys of ~45 bytes: past 16 values and past the key buffer.
		big.Add(CatResource, "tags", String(fmt.Sprintf("%02d-%s", 19-i, strings.Repeat("x", 40))))
	}
	emptyCat := NewRequest("empty category").Add(CatSubject, "role", String("doctor"))
	emptyCat.Attrs[CatAction] = map[AttributeID]Bag{}
	emptyCat.Attrs[CatResource] = map[AttributeID]Bag{"owner": nil, "tags": {}}
	cases["overflow/categories"], cases["overflow/attributes"], cases["overflow/values"] = many, wide, big
	cases["empty category"] = emptyCat
	rng := idgen.NewRand(1)
	for i := 0; i < 200; i++ {
		cases[fmt.Sprintf("random/%d", i)] = randomRequest(rng, fmt.Sprintf("r-%d", i))
	}
	return cases
}

// CanonicalBytes and Digest are the reference encoding byte for byte.
func TestCanonicalBytesMatchesReference(t *testing.T) {
	for name, r := range canonicalCases() {
		want := referenceCanonicalBytes(r)
		if got := r.CanonicalBytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s: CanonicalBytes\n got %q\nwant %q", name, got, want)
		}
		if r.Digest() != crypto.Sum(want) {
			t.Fatalf("%s: Digest differs from the reference's hash", name)
		}
	}
}

// The digest is the decision-cache key and M1's digest at both probes: it
// allocates nothing on acplane's shape.
func TestDigestAllocatesNothing(t *testing.T) {
	for i, r := range acplaneRequests(20) {
		if n := testing.AllocsPerRun(100, func() { _ = r.Digest() }); n != 0 {
			t.Errorf("request %d: Digest allocates %.1f/op, want 0", i, n)
		}
	}
}

// Clone keeps an attribute or category that is present but empty, so a
// tamper that passes its clone through unchanged keeps the M1 digest.
func TestRequestCloneKeepsEmpty(t *testing.T) {
	r := NewRequest("r").Add(CatSubject, "role", String("doctor"))
	r.TraceID = "t"
	r.Attrs[CatSubject]["tags"] = Bag{}
	r.Attrs[CatResource] = map[AttributeID]Bag{"owner": nil}
	r.Attrs[CatAction] = map[AttributeID]Bag{}
	c := r.Clone()
	if got, want := c.CanonicalBytes(), r.CanonicalBytes(); !bytes.Equal(got, want) {
		t.Fatalf("clone's CanonicalBytes\n got %q\nwant %q", got, want)
	}
	back, err := DecodeRequest(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeRequest(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !sameDecoded(back, want) {
		t.Fatalf("clone's round trip = %+v, want %+v", back, want)
	}
}

func BenchmarkRequestDigest(b *testing.B) {
	reqs := acplaneRequests(64)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		_ = reqs[i%len(reqs)].Digest()
	}
}
