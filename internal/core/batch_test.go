package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/xacml"
)

func mustBatch(t *testing.T, recs ...LogRecord) LogBatch {
	t.Helper()
	lb, err := NewLogBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	return lb
}

// logArgs is the logbatch args that anchor recs, a lone record as a batch of
// one, the way the LI sends it.
func logArgs(recs ...LogRecord) []byte {
	lb, err := NewLogBatch(recs)
	if err != nil {
		panic(err)
	}
	return lb.Encode()
}

// A whole exchange anchored in one batch transaction must store every
// record, emit one event per record whose payload is the record's bytes
// inside the call's args, keep no row for the root, and complete the
// exchange exactly like four individual transactions.
func TestLogBatchCompletesExchange(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-b1")
	env.anchorPolicy(x.polVer)

	recs := []LogRecord{x.pepRequest(), x.pdpRequest(), x.pdpResponse(), x.pepResponse(x.decision)}
	args := mustBatch(t, recs...).Encode()
	evs := env.mustCall("li-t1", MethodLogBatch, args)

	stored := 0
	for _, e := range evs {
		if e.Type != EventLogStored {
			continue
		}
		if stored == len(recs) || !bytes.Equal(e.Payload, recs[stored].Encode()) {
			t.Fatalf("event %d: payload is not the record the batch carried", stored)
		}
		// The payload is the args' own bytes, not a copy of them.
		if !within(e.Payload, args) {
			t.Fatalf("event %d: payload lies outside the call's args", stored)
		}
		stored++
	}
	if stored != len(recs) {
		t.Fatalf("stored %d records, want %d", stored, len(recs))
	}
	// The root lives in the args only: the contract keeps no row for it.
	if keys := slices.Collect(contract.Namespace(env.st, ContractName).Keys("batch/")); len(keys) != 0 {
		t.Fatalf("logbatch left batch rows: %v", keys)
	}
	if len(alertsOf(evs)) != 0 {
		t.Fatalf("clean batch raised alerts: %+v", alertsOf(evs))
	}
	// The verdict completes the exchange (RequireVerdict is on).
	evs = env.mustCall("analyser", MethodVerdict, x.verdict(x.decision).Encode())
	if !hasEvent(evs, EventMatched) {
		t.Fatal("batched exchange never matched")
	}
}

// within reports whether sub is a slice of whole's own bytes.
func within(sub, whole []byte) bool {
	for i := range whole {
		if &whole[i] == &sub[0] {
			return i+len(sub) <= len(whole)
		}
	}
	return false
}

// A batch whose claimed root does not bind its records is invalid.
func TestLogBatchRootMismatchRejected(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-b2")
	lb := mustBatch(t, x.pepRequest(), x.pdpRequest())
	lb.Root = crypto.Sum([]byte("forged root"))
	if _, err := env.call("li-t1", MethodLogBatch, lb.Encode()); err == nil {
		t.Fatal("forged batch root accepted")
	}
	if _, ok := ReadStoredRecord(contract.Namespace(env.st, ContractName), x.reqID, KindPEPRequest); ok {
		t.Fatal("record from rejected batch was stored")
	}
}

func TestLogBatchRejectsEmptyAndOversize(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	if _, err := env.call("li-t1", MethodLogBatch, LogBatch{}.Encode()); err == nil {
		t.Fatal("empty batch accepted")
	}
	recs := make([]LogRecord, MaxLogBatch+1)
	for i := range recs {
		recs[i] = cleanExchange(fmt.Sprintf("req-ovr-%d", i)).pepRequest()
	}
	if _, err := NewLogBatch(recs); err == nil {
		t.Fatal("NewLogBatch accepted oversize window")
	}
	// A hand-rolled oversize batch must be rejected by the contract's own
	// bound before any root computation.
	lb := LogBatch{Records: recs}
	if _, err := env.call("li-t1", MethodLogBatch, lb.Encode()); err == nil {
		t.Fatal("contract accepted oversize batch")
	}
}

// A conflicting record smuggled inside a batch must raise the same
// equivocation alert as a conflicting individual transaction, keeping the
// original record.
func TestLogBatchEquivocationDetected(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-b3")
	env.mustCall("li-t1", MethodLogBatch, logArgs(x.pepRequest()))

	conflict := x.pepRequest()
	conflict.ReqDigest = crypto.Sum([]byte("other view"))
	lb := mustBatch(t, conflict, x.pdpRequest())
	evs := env.mustCall("li-evil", MethodLogBatch, lb.Encode())

	alerts := alertsOf(evs)
	if len(alerts) != 1 || alerts[0].Type != AlertEquivocation {
		t.Fatalf("alerts = %+v, want one equivocation", alerts)
	}
	got, _ := ReadStoredRecord(contract.Namespace(env.st, ContractName), x.reqID, KindPEPRequest)
	if got.ReqDigest != x.reqDig {
		t.Fatal("original record was overwritten by batched conflict")
	}
	// The non-conflicting record of the same batch still landed.
	if _, ok := ReadStoredRecord(contract.Namespace(env.st, ContractName), x.reqID, KindPDPRequest); !ok {
		t.Fatal("clean record of a partially conflicting batch was lost")
	}
}

// One batch advancing several requests runs the matching checks for each.
func TestLogBatchMultiRequest(t *testing.T) {
	cfg := defaultCfg()
	cfg.RequireVerdict = false
	env := newMatchEnv(t, cfg)
	x1, x2 := cleanExchange("req-b4"), cleanExchange("req-b5")
	env.anchorPolicy(x1.polVer)

	lb := mustBatch(t,
		x1.pepRequest(), x1.pdpRequest(), x1.pdpResponse(), x1.pepResponse(x1.decision),
		x2.pepRequest(), x2.pdpRequest(), x2.pdpResponse(), x2.pepResponse(xacml.Deny))
	evs := env.mustCall("li-t1", MethodLogBatch, lb.Encode())

	if !readDone(contract.Namespace(env.st, ContractName), x1.reqID) {
		t.Fatal("clean exchange in multi-request batch did not complete")
	}
	if readDone(contract.Namespace(env.st, ContractName), x2.reqID) {
		t.Fatal("tampered-enforcement exchange completed")
	}
	found := false
	for _, a := range alertsOf(evs) {
		if a.ReqID == x2.reqID && a.Type == AlertEnforcementMismatch {
			found = true
		}
	}
	if !found {
		t.Fatal("M4 mismatch inside a batch went undetected")
	}
}
