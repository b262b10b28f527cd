package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"drams/internal/contract"
	"drams/internal/merkle"
)

// The record decoders read bytes any allowlisted member chose (transaction
// args) and bytes off the event stream. Arbitrary input must never panic
// them, and an accepted input must re-encode to exactly the bytes it came
// from: the contract hashes args as they lie, so equal bytes have to mean
// equal records. The JSON an older build wrote is among the seeds, as
// hostile input.

// fuzzRecords are the four kinds, one with every field set.
func fuzzRecords() []LogRecord {
	x := cleanExchange("req-fuzz")
	full := x.pdpResponse()
	full.TraceID, full.TimestampUnixNano, full.Payload = "trace-fuzz", -1, []byte("sealed")
	return []LogRecord{x.pepRequest(), x.pdpRequest(), full, x.pepResponse(x.decision)}
}

// jsonRecord is a pep.request the way an older build encoded it.
func jsonRecord() map[string]any {
	x := cleanExchange("req-json")
	return map[string]any{"kind": string(KindPEPRequest), "reqId": x.reqID, "tenant": "t1",
		"agent": "agent-t1", "reqDigest": x.reqDig.String(), "ts": 0}
}

func jsonSeed(v any) []byte {
	b, _ := json.Marshal(v) // maps of strings and numbers always marshal
	return b
}

func FuzzDecodeLogRecord(f *testing.F) {
	for _, rec := range fuzzRecords() {
		f.Add(rec.Encode())
	}
	f.Add(jsonSeed(jsonRecord()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeLogRecord(data)
		if err != nil {
			return
		}
		if got := rec.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", got, data)
		}
		// The monitor reads a LogStored payload, the record, by its header
		// alone; it must agree with the full decode.
		h, err := recordHeader(data)
		if err != nil || h.Kind != rec.Kind || h.ReqID != rec.ReqID || h.TraceID != rec.TraceID || h.TimestampUnixNano != rec.TimestampUnixNano {
			t.Fatalf("header read %s/%q/%q/%d (%v), record is %s/%q/%q/%d", h.Kind, h.ReqID, h.TraceID, h.TimestampUnixNano, err,
				rec.Kind, rec.ReqID, rec.TraceID, rec.TimestampUnixNano)
		}
	})
}

func FuzzDecodeLogBatch(f *testing.F) {
	lb, err := NewLogBatch(fuzzRecords())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(lb.Encode())
	f.Add(append(lb.Encode(), 0)) // a trailing byte after a batch whose root holds
	f.Add(jsonSeed(map[string]any{"root": lb.Root.String(), "records": []any{jsonRecord()}}))
	f.Add(LogBatch{}.Encode())
	// The contract walks a batch its own way: the root over the blobs first,
	// then one record at a time. It refuses what the decoder refuses, and
	// applies what decodes with a matching root and valid records.
	env := newMatchEnv(f, defaultCfg())
	f.Fuzz(func(t *testing.T, data []byte) {
		lb, err := DecodeLogBatch(data)
		_, execErr := env.engine.Execute(contract.CallCtx{Height: env.height, Caller: "li-t1"}, env.st,
			contract.Call{Contract: ContractName, Method: MethodLogBatch, Args: data})
		if err != nil {
			if execErr == nil {
				t.Fatalf("the contract applied a batch the decoder refuses (%v)", err)
			}
			return
		}
		valid := merkle.RootOf(lb.leaves) == lb.Root
		for i := range lb.Records {
			valid = valid && lb.Records[i].Validate() == nil
		}
		if valid != (execErr == nil) {
			t.Fatalf("batch with root and records valid=%v, contract error %v", valid, execErr)
		}
		if got := lb.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted batch re-encodes differently:\n got %x\nwant %x", got, data)
		}
		for i := range lb.Records {
			if !bytes.Equal(lb.Records[i].Encode(), lb.leaves[i]) {
				t.Fatalf("record %d re-encodes differently from its leaf", i)
			}
		}
	})
}
