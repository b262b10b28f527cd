package logger

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/netsim"
	"drams/internal/xacml"
)

var testKey = crypto.DeriveKey("logger-test", "K")

type liEnv struct {
	node *blockchain.Node
	li   *LI
}

func newLIEnv(t *testing.T, mode SubmitMode) *liEnv {
	t.Helper()
	var seed [32]byte
	seed[0] = 7
	id := crypto.NewIdentityFromSeed("li@t1", seed)
	reg := contract.NewRegistry()
	reg.MustRegister(core.NewLogMatchContract(core.MatchConfig{
		TimeoutBlocks: 50, Analyser: "analyser",
	}))
	net := netsim.New(netsim.Config{Seed: 2})
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "node-0",
		Chain: blockchain.Config{
			Difficulty: 4,
			Identities: []crypto.PublicIdentity{id.Public()},
			Registry:   reg,
		},
		Network:            net,
		Mine:               true,
		EmptyBlockInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	li, err := NewLI(LIConfig{
		Name: "li@t1", Tenant: "t1", Node: node, Identity: id, Key: testKey, Mode: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	li.Start()
	t.Cleanup(func() {
		li.Stop()
		node.Stop()
		net.Close()
	})
	return &liEnv{node: node, li: li}
}

func pepRequestRecord(reqID string) core.LogRecord {
	return core.LogRecord{
		Kind:      core.KindPEPRequest,
		ReqID:     reqID,
		Tenant:    "t1",
		Agent:     "agent@t1",
		ReqDigest: crypto.Sum([]byte("request-" + reqID)),
	}
}

// waitForRecord waits until contract state holds the record's row, then
// returns the record as it was anchored. State keeps only the match fields
// (core.StoredRecord); the record itself is read where it lives on chain, in
// the arguments of the transaction that logged it.
func waitForRecord(t *testing.T, node *blockchain.Node, reqID string, kind core.LogKind) core.LogRecord {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var ok bool
		node.Chain().ReadState(core.ContractName, func(st contract.StateDB) {
			_, ok = core.ReadStoredRecord(st, reqID, kind)
		})
		if ok {
			return anchoredRecord(t, node.Chain(), reqID, kind)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("record %s/%s never reached the chain", reqID, kind)
	return core.LogRecord{}
}

// anchoredRecord finds the first log or logbatch transaction on the best
// chain that carries the record.
func anchoredRecord(t *testing.T, chain *blockchain.Chain, reqID string, kind core.LogKind) core.LogRecord {
	t.Helper()
	for h := uint64(1); h <= chain.Height(); h++ {
		b, _ := chain.BlockByHeight(h)
		for _, tx := range b.Txs {
			var recs []core.LogRecord
			switch tx.Call.Method {
			case core.MethodLog:
				if rec, err := core.DecodeLogRecord(tx.Call.Args); err == nil {
					recs = []core.LogRecord{rec}
				}
			case core.MethodLogBatch:
				if lb, err := core.DecodeLogBatch(tx.Call.Args); err == nil {
					recs = lb.Records
				}
			}
			for _, rec := range recs {
				if rec.ReqID == reqID && rec.Kind == kind {
					return rec
				}
			}
		}
	}
	t.Fatalf("record %s/%s is in state but in no transaction", reqID, kind)
	return core.LogRecord{}
}

func TestLIAsyncSubmission(t *testing.T) {
	env := newLIEnv(t, SubmitAsync)
	rec := pepRequestRecord("async-1")
	if err := env.li.Log(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	got := waitForRecord(t, env.node, "async-1", core.KindPEPRequest)
	if got.ReqDigest != rec.ReqDigest {
		t.Fatal("stored record differs")
	}
	// The counter moves after Send returns, which the miner can beat to
	// the chain: wait for it instead of sampling it once.
	for deadline := time.Now().Add(5 * time.Second); env.li.Stats().Submitted == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no submission counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLIBatchedAnchoring(t *testing.T) {
	env := newLIEnv(t, SubmitAsync)
	// A burst larger than one flush window: the LI must anchor (most of)
	// it in Merkle-batched transactions while every record still reaches
	// contract state.
	const n = 24
	for i := 0; i < n; i++ {
		if err := env.li.Log(context.Background(), pepRequestRecord(fmt.Sprintf("batch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		waitForRecord(t, env.node, fmt.Sprintf("batch-%d", i), core.KindPEPRequest)
	}
	st := env.li.Stats()
	if st.Submitted != n {
		t.Fatalf("submitted = %d records, want %d", st.Submitted, n)
	}
	if st.BatchesSubmitted == 0 {
		t.Fatal("burst produced no batch transactions")
	}
}

func TestLISyncSubmission(t *testing.T) {
	env := newLIEnv(t, SubmitSync)
	if err := env.li.Log(context.Background(), pepRequestRecord("sync-1")); err != nil {
		t.Fatal(err)
	}
	waitForRecord(t, env.node, "sync-1", core.KindPEPRequest)
}

func TestLIConfirmedSubmission(t *testing.T) {
	env := newLIEnv(t, SubmitConfirmed)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := env.li.Log(ctx, pepRequestRecord("conf-1")); err != nil {
		t.Fatal(err)
	}
	// Confirmed mode means the record is on-chain when Log returns.
	var ok bool
	env.node.Chain().ReadState(core.ContractName, func(st contract.StateDB) {
		_, ok = core.ReadStoredRecord(st, "conf-1", core.KindPEPRequest)
	})
	if !ok {
		t.Fatal("confirmed log not on chain at return")
	}
}

func TestLIStoppedRejects(t *testing.T) {
	env := newLIEnv(t, SubmitSync)
	env.li.Stop()
	if err := env.li.Log(context.Background(), pepRequestRecord("x")); !errors.Is(err, ErrStopped) {
		t.Fatalf("got %v", err)
	}
}

func TestLIAlertDispatch(t *testing.T) {
	env := newLIEnv(t, SubmitSync)
	var alerted atomic.Value
	env.li.OnAlert(func(a core.Alert) { alerted.Store(a) })

	// Conflicting records for the same interception point → equivocation
	// alert surfaced to the LI's handlers.
	rec := pepRequestRecord("eq-1")
	if err := env.li.Log(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	waitForRecord(t, env.node, "eq-1", core.KindPEPRequest)
	conflict := rec
	conflict.ReqDigest = crypto.Sum([]byte("conflict"))
	if err := env.li.Log(context.Background(), conflict); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if v := alerted.Load(); v != nil {
			a := v.(core.Alert)
			if a.Type != core.AlertEquivocation {
				t.Fatalf("alert = %+v", a)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("alert never dispatched")
}

func TestLISealOpenAndTag(t *testing.T) {
	env := newLIEnv(t, SubmitSync)
	req := xacml.NewRequest("r1").Add(xacml.CatSubject, "role", xacml.String("doctor"))
	sealed, err := env.li.Seal(core.EncryptedContext{Request: req}, "r1")
	if err != nil {
		t.Fatal(err)
	}
	ec, err := env.li.Open("r1", sealed)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Request.Digest() != req.Digest() {
		t.Fatal("seal/open mismatch")
	}
	if env.li.DecisionTag("r1", xacml.Permit) != core.DecisionTag(testKey, "r1", xacml.Permit) {
		t.Fatal("LI tag differs from core tag")
	}
	if env.li.Name() != "li@t1" || env.li.Tenant() != "t1" {
		t.Fatal("identity accessors wrong")
	}
}

func TestAgentObservationsReachChain(t *testing.T) {
	env := newLIEnv(t, SubmitSync)
	agent := NewAgent("agent@t1", "t1", env.li, nil)
	req := xacml.NewRequest("ag-1").
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	res := xacml.Result{
		RequestID: "ag-1", Decision: xacml.Permit,
		PolicyID: "root", PolicyVersion: "v1", PolicyDigest: crypto.Sum([]byte("pol")),
	}

	agent.PEPRequestSent(req)
	agent.PDPRequestReceived(req)
	agent.PDPResponseSent(req, res)
	agent.PEPResponseReceived(req, res, xacml.Permit)

	for _, kind := range core.LogKinds() {
		rec := waitForRecord(t, env.node, "ag-1", kind)
		if rec.ReqDigest != req.Digest() {
			t.Fatalf("%s: wrong request digest", kind)
		}
		if rec.Agent != "agent@t1" || rec.Tenant != "t1" {
			t.Fatalf("%s: provenance %q/%q", kind, rec.Agent, rec.Tenant)
		}
		switch kind {
		case core.KindPDPResponse:
			if rec.PolicyDigest != res.PolicyDigest || rec.DecisionTag != env.li.DecisionTag("ag-1", xacml.Permit) {
				t.Fatalf("%s: wrong response fields", kind)
			}
			// The sealed context must contain the request for the analyser.
			ec, err := env.li.Open("ag-1", rec.Payload)
			if err != nil || ec.Request == nil || ec.Result == nil {
				t.Fatalf("%s: context not recoverable: %v", kind, err)
			}
		case core.KindPEPResponse:
			if rec.EnforcedTag != env.li.DecisionTag("ag-1", xacml.Permit) {
				t.Fatalf("%s: wrong enforced tag", kind)
			}
		}
	}
	if st := agent.Stats(); st.Observed != 4 || st.Errors != 0 {
		t.Fatalf("agent stats = %+v", st)
	}
}

func TestAgentErrorsDoNotPanic(t *testing.T) {
	env := newLIEnv(t, SubmitSync)
	agent := NewAgent("agent@t1", "t1", env.li, nil)
	env.li.Stop() // submissions now fail
	req := xacml.NewRequest("err-1")
	agent.PEPRequestSent(req)
	if st := agent.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNewLIValidation(t *testing.T) {
	if _, err := NewLI(LIConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// unstartedLI builds an async LI with a tiny queue and no workers running
// (Start is not called), so the queue only fills.
func unstartedLI(t *testing.T, queueSize int) *LI {
	t.Helper()
	var seed [32]byte
	seed[0] = 9
	id := crypto.NewIdentityFromSeed("li@q", seed)
	reg := contract.NewRegistry()
	reg.MustRegister(core.NewLogMatchContract(core.MatchConfig{TimeoutBlocks: 100}))
	net := netsim.New(netsim.Config{Seed: 6})
	t.Cleanup(func() { net.Close() })
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "q-node",
		Chain: blockchain.Config{Difficulty: 4,
			Identities: []crypto.PublicIdentity{id.Public()}, Registry: reg},
		Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	li, err := NewLI(LIConfig{
		Name: "li@q", Tenant: "q", Node: node, Identity: id, Key: testKey,
		Mode: SubmitAsync, QueueSize: queueSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return li
}

func TestLIAsyncQueueOverflow(t *testing.T) {
	// Submissions beyond capacity must fail fast with ErrQueueFull and be
	// counted as dropped, never blocking the access-control path.
	li := unstartedLI(t, 2)
	var full int
	for i := 0; i < 5; i++ {
		err := li.Log(context.Background(), pepRequestRecord(fmt.Sprintf("q-%d", i)))
		if errors.Is(err, ErrQueueFull) {
			full++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if full != 3 {
		t.Fatalf("queue-full errors = %d, want 3", full)
	}
	if st := li.Stats(); st.Dropped != 3 || st.QueueLen != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Stop sends nothing more: the two records still queued are lost too,
	// and must be counted as such.
	li.Stop()
	if st := li.Stats(); st.Dropped != 5 || st.QueueLen != 0 {
		t.Fatalf("after Stop: %+v, want the 2 queued records dropped and an empty queue", st)
	}
}

// A backlog of two full flush windows is anchored by two batch transactions:
// with the queue never empty while a worker gathers, no window closes short,
// so 32 records cost 2 signed transactions instead of 32.
func TestLIFullWindowsAnchorOncePerWindow(t *testing.T) {
	li := unstartedLI(t, 64)
	const n = 32 // two default windows of 16
	for i := 0; i < n; i++ {
		if err := li.Log(context.Background(), pepRequestRecord(fmt.Sprintf("w-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	li.Start()
	defer li.Stop()
	// The batch counter moves after the record counter, so two batches
	// counted means every record is counted too.
	for deadline := time.Now().Add(10 * time.Second); li.Stats().BatchesSubmitted < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if st := li.Stats(); st.Submitted != n || st.BatchesSubmitted != 2 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want %d records in 2 batch transactions", st, n)
	}
}

func TestLIFailedSubmissionCounted(t *testing.T) {
	env := newLIEnv(t, SubmitSync)
	env.node.Stop() // chain gone: submissions fail
	err := env.li.Log(context.Background(), pepRequestRecord("fail-1"))
	if err == nil {
		t.Fatal("submission to stopped node succeeded")
	}
	if st := env.li.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
