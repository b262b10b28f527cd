package xacml

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"drams/internal/crypto"
)

// wireRequests covers every value type and the shapes the binary codec must
// keep: an attribute present with an empty bag, an empty TraceID, a time
// whose zone is not UTC, and a negative zero. TestRequestEncodeDecodeRoundTrip
// and TestResultEncodeDecodeRoundTrip run these tables.
func wireRequests() map[string]*Request {
	offset := time.FixedZone("", -(4*3600 + 30*60))
	emptyBag := NewRequest("r-empty").Add(CatAction, "op", String("read"))
	emptyBag.Attrs[CatSubject] = map[AttributeID]Bag{"role": {}}
	return map[string]*Request{
		"every type": NewRequest("r-1").
			Add(CatSubject, "role", String("doctor")).
			Add(CatSubject, "role", String("")).
			Add(CatResource, "id", Int(-7)).
			Add(CatResource, "id", Int(math.MaxInt64)).
			Add(CatResource, "size", Float(2.5)).
			Add(CatResource, "size", Float(math.MaxFloat64)).
			Add(CatAction, "urgent", Bool(true)).
			Add(CatAction, "audited", Bool(false)).
			Add(CatEnvironment, "now", Time(time.Date(2026, 10, 15, 9, 30, 0, 123, time.UTC))),
		"non-UTC time": NewRequest("r-2").
			Add(CatEnvironment, "now", Value{T: TypeTime, Tm: time.Date(2026, 10, 15, 9, 30, 0, 0, offset)}),
		"signed zero": NewRequest("r-3").
			Add(CatResource, "score", Float(math.Copysign(0, -1))),
		"year bounds": NewRequest("r-5").
			Add(CatEnvironment, "t", Time(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC))).
			Add(CatEnvironment, "t", Time(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC))),
		"empty bag present": emptyBag,
		"trace ID":          func() *Request { r := NewRequest("r-4"); r.TraceID = "t-4"; return r }(),
		"no ID, no attrs":   NewRequest(""),
	}
}

// wireRefused holds values Encode writes but a request may not carry: no NaN,
// no Inf, no year past 9999, no zone hour past 23 (AppendChecked's rule,
// which the binary seal keeps though it could hold them), and what the wire
// cannot write (an unknown type, a zone offset MarshalBinary refuses).
// AppendChecked and DecodeRequest refuse every one.
func wireRefused() map[string]Value {
	at := func(year int, zone *time.Location) Value {
		return Value{T: TypeTime, Tm: time.Date(year, 1, 1, 0, 0, 0, 0, zone)}
	}
	return map[string]Value{
		"NaN":              Float(math.NaN()),
		"+Inf":             Float(math.Inf(1)),
		"-Inf":             Float(math.Inf(-1)),
		"year 10000":       at(10000, time.UTC),
		"year -1":          at(-1, time.UTC),
		"zone hour 24":     at(2026, time.FixedZone("", 24*3600)),
		"zone offset -60s": at(2026, time.FixedZone("", -60)),
		"unknown type":     {T: Type(9)},
		"no type":          {},
	}
}

func wireResults() map[string]Result {
	return map[string]Result{
		"permit": {RequestID: "r-1", Decision: Permit, Extended: Permit,
			PolicyID: "records", PolicyVersion: "v1", PolicyDigest: crypto.Sum([]byte("v1"))},
		"obligations with params": {RequestID: "r-2", Decision: Deny, Extended: Deny,
			Obligations: []Obligation{
				{ID: "alert-security", FulfillOn: EffectDeny, Params: map[string]string{"to": "soc", "level": "2"}},
				{ID: "log", FulfillOn: EffectDeny},
			},
			PolicyID: "records", PolicyVersion: "v2", PolicyDigest: crypto.Sum([]byte("v2"))},
		"indeterminate": {RequestID: "r-3", Decision: IndeterminateDP, Extended: IndeterminateD},
		"zero":          {},
	}
}

func sameRequest(a, b *Request) bool {
	return a.ID == b.ID && a.TraceID == b.TraceID && bytes.Equal(a.CanonicalBytes(), b.CanonicalBytes())
}

// sameDecoded reports whether two decoded requests are deep-equal: IDs,
// categories, attributes and bags, empty ones included.
func sameDecoded(a, b *Request) bool {
	return a.ID == b.ID && a.TraceID == b.TraceID && reflect.DeepEqual(a.Attrs, b.Attrs)
}

// A request decoded into again is the request DecodeRequest returns, however
// its previous content was shaped, and a refused input leaves nothing behind
// for the next decode.
func TestDecodeRequestIntoReuse(t *testing.T) {
	full := NewRequest("full").
		Add(CatSubject, "role", String("doctor")).Add(CatSubject, "role", String("nurse")).
		Add(CatResource, "id", Int(7)).Add(CatAction, "op", String("read")).
		Add(CatEnvironment, "now", Time(time.Date(2026, 10, 17, 9, 0, 0, 0, time.UTC)))
	full.TraceID = "t-full"
	one := NewRequest("one").Add(CatAction, "op", String("write"))
	multi := NewRequest("multi").Add(CatSubject, "tags", String("a")).Add(CatSubject, "tags", String("b"))
	emptied := NewRequest("emptied")
	emptied.Attrs[CatSubject] = map[AttributeID]Bag{"tags": {}}
	refused := append(full.Encode(), 0)
	wide := NewRequest("wide")
	for i := 0; i < 10; i++ {
		wide.Add(Category("cat-"+strconv.Itoa(i)), "x", Int(int64(i)))
	}
	cases := map[string][][]byte{
		"past the kept maps":          {wide.Encode(), full.Encode(), wide.Encode(), one.Encode()},
		"4 categories to 1":           {full.Encode(), one.Encode()},
		"multi-value bag to empty":    {multi.Encode(), emptied.Encode()},
		"1 category to 4":             {one.Encode(), full.Encode(), full.Encode()},
		"refused, then good":          {full.Encode(), refused, one.Encode()},
		"refused first":               {refused, multi.Encode()},
		"trace ID to none":            {full.Encode(), NewRequest("").Encode()},
		"duplicate category, refused": {one.Encode(), {wireVersion, 0, 0, 2, 1, 'c', 0, 1, 'c', 0}, full.Encode()},
	}
	for name, steps := range cases {
		into := new(Request)
		for i, data := range steps {
			intoErr := DecodeRequestInto(into, data)
			want, err := DecodeRequest(data)
			if (err == nil) != (intoErr == nil) {
				t.Fatalf("%s, step %d: DecodeRequest err = %v, DecodeRequestInto err = %v", name, i, err, intoErr)
			}
			if err == nil && !sameDecoded(into, want) {
				t.Fatalf("%s, step %d: got %+v, want %+v", name, i, into, want)
			}
		}
	}
}

// DecodeRequest gives a fresh request a map and bags of its own, and costs
// no more than it did before it shared its body with DecodeRequestInto: 414
// allocations over these 20 acplane-shaped requests (394 since the IDs share
// the request's one copy of its input). DecodeRequestInto, into a request
// that held the largest of them, allocates nothing: the IDs alias the input
// too.
func TestDecodeRequestAllocs(t *testing.T) {
	reqs := acplaneRequests(20)
	into := new(Request)
	fresh := 0.0
	for _, r := range reqs {
		enc := r.Encode()
		fresh += testing.AllocsPerRun(50, func() { _, _ = DecodeRequest(enc) })
		if err := DecodeRequestInto(into, enc); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("DecodeRequest: %.0f allocations over 20 requests", fresh)
	if fresh > 414 {
		t.Errorf("DecodeRequest allocates %.0f over 20 requests, budget 414", fresh)
	}
	for i, r := range reqs {
		enc := r.Encode()
		if n := testing.AllocsPerRun(50, func() { _ = DecodeRequestInto(into, enc) }); n > 0 {
			t.Errorf("request %d: DecodeRequestInto allocates %.1f/op, budget 0", i, n)
		}
	}
}

// DecodeResultInto reads a result with no obligations without allocating:
// its strings alias the input, as the PEP decodes its replies.
func TestDecodeResultIntoAllocs(t *testing.T) {
	enc := wireResults()["permit"].Encode()
	var res Result
	if n := testing.AllocsPerRun(50, func() { _ = DecodeResultInto(&res, enc) }); n > 0 {
		t.Errorf("DecodeResultInto allocates %.1f/op, budget 0", n)
	}
	if res.PolicyVersion != "v1" || unsafe.StringData(res.PolicyVersion) != &enc[len(enc)-crypto.DigestSize-2] {
		t.Errorf("PolicyVersion %q does not alias the input", res.PolicyVersion)
	}
}

func BenchmarkDecodeRequestInto(b *testing.B) {
	var encs [][]byte
	for _, r := range acplaneRequests(64) {
		encs = append(encs, r.Encode())
	}
	into := new(Request)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := DecodeRequestInto(into, encs[i%len(encs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// Every value the wire decodes is one a request may carry, so the PEP, the
// wire, the sealed probe context and the analyser agree on one set of
// values: anything else is refused at the PEP by AppendChecked and on the
// wire by DecodeRequest. What AppendChecked accepts decodes as Encode's bytes
// do.
func TestWireRefusesUnsupportedValues(t *testing.T) {
	for name, v := range wireRefused() {
		req := NewRequest("r").Add(CatSubject, "role", String("doctor")).Add(CatEnvironment, "x", v)
		if enc, err := req.AppendChecked(nil); !errors.Is(err, ErrUnsupportedValue) || enc != nil {
			t.Errorf("%s: AppendChecked = %d bytes, %v", name, len(enc), err)
		} else if want := "environment/x: "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: AppendChecked error %q does not name the attribute", name, err)
		}
		if _, err := DecodeRequest(req.Encode()); err == nil {
			t.Errorf("%s: DecodeRequest accepted it", name)
		}
	}
	for name, req := range wireRequests() {
		enc, err := req.AppendChecked(nil)
		if err != nil {
			t.Fatalf("%s: AppendChecked = %v", name, err)
		}
		back, err := DecodeRequest(enc)
		if err != nil || !sameRequest(back, req) {
			t.Errorf("%s: AppendChecked's bytes decode to %+v, %v", name, back, err)
		}
	}
}

func TestWireRefusesHostileInput(t *testing.T) {
	req := wireRequests()["every type"]
	res := wireResults()["obligations with params"]
	jsonReq, _ := json.Marshal(req)
	jsonRes, _ := json.Marshal(res)
	cases := []struct {
		name string
		data []byte
		want string // in the error
	}{
		{"empty", nil, "empty input"},
		{"JSON body", jsonReq, "JSON"},
		{"unknown tag", append([]byte{0x02}, req.Encode()[1:]...), "unknown format byte 0x02"},
		{"trailing bytes", append(req.Encode(), 0), "1 trailing bytes"},
		{"count beyond the input", []byte{wireVersion, 0, 0, 0xff, 0xff, 0x03}, "exceeds"},
		{"string beyond the input", []byte{wireVersion, 5, 'r'}, "truncated"},
		{"bool byte", []byte{wireVersion, 0, 0, 1, 0, 1, 0, 1, byte(TypeBool), 2}, "bool byte"},
		{"attribute twice", []byte{wireVersion, 0, 0, 1, 0, 2, 1, 'a', 0, 1, 'a', 0}, "twice"},
		{"unknown value type", []byte{wireVersion, 0, 0, 1, 0, 1, 0, 1, 9, 0}, "unsupported value"},
		// A value costs at least two bytes, so three bytes hold one.
		{"one-byte values", []byte{wireVersion, 0, 0, 1, 0, 1, 0, 2, 9, 9, 9}, "exceeds"},
	}
	for _, c := range cases {
		_, err := DecodeRequest(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("request %s: err = %v, want %q", c.name, err, c.want)
		}
	}
	if _, err := DecodeResult(jsonRes); err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Errorf("result JSON body: err = %v", err)
	}
	if _, err := DecodeResult(append(res.Encode(), 0)); err == nil {
		t.Error("result with a trailing byte decoded")
	}
	// Truncation at every offset is an error, never a panic.
	for name, enc := range map[string][]byte{"request": req.Encode(), "result": res.Encode()} {
		for i := range enc {
			var err error
			if name == "request" {
				_, err = DecodeRequest(enc[:i])
			} else {
				_, err = DecodeResult(enc[:i])
			}
			if err == nil {
				t.Fatalf("%s truncated to %d of %d bytes decoded", name, i, len(enc))
			}
		}
	}
}

// A declared count reserves no more than maxSizeHint map entries: a body
// declaring half a million categories, refused at the second by a duplicate
// name, allocates about its own size (the one copy of the input), not a map
// for every category it declares.
func TestWireCountBuysNoLargeMap(t *testing.T) {
	const n = 1 << 19
	for name, prefix := range map[string][]byte{
		"categories": {wireVersion, 0, 0},
		"attributes": {wireVersion, 0, 0, 1, 0},
		"parameters": {wireVersion, 0, 0, 0, 1, 0, 0},
	} {
		body := binary.AppendUvarint(prefix, n)
		for len(body) < 2*n+len(prefix)+3 {
			body = append(body, 0, 0)
		}
		decode := func() error { _, err := DecodeRequest(body); return err }
		if name == "parameters" {
			decode = func() error { _, err := DecodeResult(body); return err }
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("%s: err = %v, want a duplicate refused", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*uint64(len(body)) {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(body), got)
		}
	}
}

func TestBatchEnvelopeRoundTrip(t *testing.T) {
	items := [][]byte{wireRequests()["every type"].Encode(), {}, wireRequests()["trace ID"].Encode()}
	back, err := DecodeBatch(EncodeBatch(items))
	if err != nil || len(back) != len(items) {
		t.Fatalf("batch: %d items, %v", len(back), err)
	}
	for i := range items {
		if !bytes.Equal(back[i], items[i]) {
			t.Fatalf("item %d = %x, want %x", i, back[i], items[i])
		}
	}
	results := [][]byte{wireResults()["permit"].Encode(), nil}
	errs := []error{nil, errors.New("federation: PDP has no evaluator")}
	reply := EncodeBatchReply(results, errs)
	gotResults, gotErrs, err := DecodeBatchReply(reply)
	if err != nil || len(gotResults) != 2 || !bytes.Equal(gotResults[0], results[0]) ||
		gotErrs[0] != nil || gotErrs[1] == nil || gotErrs[1].Error() != errs[1].Error() {
		t.Fatalf("reply: %x %v %v", gotResults, gotErrs, err)
	}
	// Hostile bodies are refused, never a panic: truncation at every offset,
	// trailing bytes, a count the body cannot hold, an unknown status.
	for i := 0; i < len(reply); i++ {
		if _, _, err := DecodeBatchReply(reply[:i]); err == nil {
			t.Fatalf("reply truncated to %d of %d bytes decoded", i, len(reply))
		}
	}
	for name, body := range map[string][]byte{
		"trailing": append(EncodeBatch(items), 0),
		"count":    {0xff, 0xff, 0x03, 0x00},
	} {
		if _, err := DecodeBatch(body); err == nil {
			t.Fatalf("%s: batch decoded", name)
		}
	}
	if _, _, err := DecodeBatchReply([]byte{1, 7, 0}); err == nil || !strings.Contains(err.Error(), "status") {
		t.Fatalf("unknown status: %v", err)
	}
}
