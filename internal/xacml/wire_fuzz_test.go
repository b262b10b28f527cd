package xacml

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// Fuzzing the PEP↔PDP decoders: arbitrary bytes must never panic, and every
// accepted input must survive a re-encode and re-decode unchanged. JSON
// seeds are hostile input: '{' is not a format tag.

// FuzzDecodeRequest also decodes each input into a request that held a
// different accepted request, which must accept or refuse it as
// DecodeRequest does and then hold the same request, and checks the
// decoded request's CanonicalBytes against the reference encoding.
func FuzzDecodeRequest(f *testing.F) {
	var held [][]byte
	for _, req := range wireRequests() {
		held = append(held, req.Encode())
	}
	for _, req := range acplaneRequests(4) {
		held = append(held, req.Encode())
	}
	for _, req := range wireRequests() {
		f.Add(req.Encode())
		b, err := json.Marshal(req)
		if err == nil {
			f.Add(b)
		}
	}
	for _, v := range wireRefused() {
		f.Add(NewRequest("r").Add(CatEnvironment, "x", v).Encode())
	}
	f.Add([]byte{wireVersion})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		into := new(Request)
		if err := DecodeRequestInto(into, held[len(data)%len(held)]); err != nil {
			t.Fatalf("held request refused: %v", err)
		}
		intoErr := DecodeRequestInto(into, data)
		req, err := DecodeRequest(data)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("DecodeRequest err = %v, DecodeRequestInto a used request err = %v", err, intoErr)
		}
		if err != nil {
			return
		}
		if !sameDecoded(into, req) {
			t.Fatalf("decoded into a used request:\n got %+v\nwant %+v", into, req)
		}
		if got, want := req.CanonicalBytes(), referenceCanonicalBytes(req); !bytes.Equal(got, want) {
			t.Fatalf("CanonicalBytes\n got %q\nwant %q", got, want)
		}
		enc, err := req.AppendChecked(nil)
		if err != nil {
			t.Fatalf("decoded a request the probe cannot seal: %v", err)
		}
		back, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if !sameRequest(back, req) {
			t.Fatalf("request changed through re-encode:\n got %q\nwant %q", back.CanonicalBytes(), req.CanonicalBytes())
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	for _, res := range wireResults() {
		f.Add(res.Encode())
		b, _ := json.Marshal(res)
		f.Add(b)
	}
	f.Add([]byte{wireVersion, 0, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		// The in-place decoder refuses exactly what the copying one does,
		// and reads the same result, into one that held another.
		into := wireResults()["obligations with params"]
		if intoErr := DecodeResultInto(&into, data); (intoErr == nil) != (err == nil) {
			t.Fatalf("DecodeResult err = %v, DecodeResultInto err = %v", err, intoErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(into, res) {
			t.Fatalf("DecodeResultInto read %+v, DecodeResult %+v", into, res)
		}
		back, err := DecodeResult(res.AppendEncoded([]byte("prefix"))[len("prefix"):])
		if err != nil {
			t.Fatalf("re-decode of accepted result failed: %v", err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("result changed through re-encode:\n got %+v\nwant %+v", back, res)
		}
	})
}

// FuzzDecodeEvalBatch feeds arbitrary bytes to both halves of the
// ac.evalBatch envelope.
func FuzzDecodeEvalBatch(f *testing.F) {
	f.Add(EncodeBatch([][]byte{wireRequests()["every type"].Encode(), wireRequests()["trace ID"].Encode()}))
	f.Add(EncodeBatchReply([][]byte{wireResults()["permit"].Encode(), nil},
		[]error{nil, errors.New("federation: PDP has no evaluator")}))
	f.Add([]byte(`{"reqs":[]}`))
	f.Add([]byte{0})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		if items, err := DecodeBatch(data); err == nil {
			back, err := DecodeBatch(EncodeBatch(items))
			if err != nil || len(back) != len(items) {
				t.Fatalf("re-decode of accepted batch: %d of %d items, %v", len(back), len(items), err)
			}
			for i := range items {
				if !bytes.Equal(back[i], items[i]) {
					t.Fatalf("item %d changed through re-encode", i)
				}
			}
		}
		if results, errs, err := DecodeBatchReply(data); err == nil {
			backResults, backErrs, err := DecodeBatchReply(EncodeBatchReply(results, errs))
			if err != nil || len(backResults) != len(results) || !reflect.DeepEqual(backErrs, errs) {
				t.Fatalf("re-decode of accepted reply: %v", err)
			}
			for i := range results {
				if !bytes.Equal(backResults[i], results[i]) {
					t.Fatalf("result %d changed through re-encode", i)
				}
			}
		}
	})
}
