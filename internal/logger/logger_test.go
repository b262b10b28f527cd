package logger

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
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

func newLIEnv(t *testing.T) *liEnv {
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
		Name: "li@t1", Tenant: "t1", Node: node, Identity: id, Key: testKey,
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

// loggedRecords lists, in chain order, the records each logbatch
// transaction on the best chain carries.
func loggedRecords(chain *blockchain.Chain) [][]core.LogRecord {
	var out [][]core.LogRecord
	for h := uint64(1); h <= chain.Height(); h++ {
		b, _ := chain.BlockByHeight(h)
		for _, tx := range b.Txs {
			if tx.Call.Method != core.MethodLogBatch {
				continue
			}
			if lb, err := core.DecodeLogBatch(tx.Call.Args); err == nil {
				out = append(out, lb.Records)
			}
		}
	}
	return out
}

// anchoredRecord finds the first logbatch transaction on the best chain
// that carries the record.
func anchoredRecord(t *testing.T, chain *blockchain.Chain, reqID string, kind core.LogKind) core.LogRecord {
	t.Helper()
	for _, recs := range loggedRecords(chain) {
		for _, rec := range recs {
			if rec.ReqID == reqID && rec.Kind == kind {
				return rec
			}
		}
	}
	t.Fatalf("record %s/%s is in state but in no transaction", reqID, kind)
	return core.LogRecord{}
}

func TestLIAsyncSubmission(t *testing.T) {
	env := newLIEnv(t)
	rec := pepRequestRecord("async-1")
	if err := env.li.enqueue([]core.LogRecord{rec}); err != nil {
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

// gatedSender holds the first Send until released, so a test can queue
// records behind a submission that is in flight.
type gatedSender struct {
	txSender
	entered, release chan struct{}
	once             sync.Once
}

func (g *gatedSender) Send(call contract.Call) (crypto.Digest, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.txSender.Send(call)
}

// Group commit: what queues while a submission is in flight is anchored
// together when the flusher is free again, with no timer involved. A burst
// of 24 records behind one in-flight Send costs two more transactions (a
// full window of 16, then the remaining 8), and every record still reaches
// contract state.
func TestLIBatchedAnchoring(t *testing.T) {
	env := newLIEnv(t)
	gate := &gatedSender{txSender: env.li.sender, entered: make(chan struct{}), release: make(chan struct{})}
	env.li.sender = gate // the flusher reads it only once a record is queued

	if err := env.li.enqueue([]core.LogRecord{pepRequestRecord("first")}); err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	const n = 24
	for i := 0; i < n; i++ {
		if err := env.li.enqueue([]core.LogRecord{pepRequestRecord(fmt.Sprintf("batch-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate.release)
	for i := 0; i < n; i++ {
		waitForRecord(t, env.node, fmt.Sprintf("batch-%d", i), core.KindPEPRequest)
	}
	for deadline := time.Now().Add(5 * time.Second); env.li.Stats().BatchesSubmitted < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	st := env.li.Stats()
	if st.Submitted != n+1 || st.BatchesSubmitted != 3 || st.Failed != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d records in 3 batch transactions: one of one, then 2 more", st, n+1)
	}
	if depth := env.li.FlushDepth(); depth.Count != 3 || depth.Sum != n+1 {
		t.Fatalf("flushes = %d anchoring %v records, want 3 anchoring %d", depth.Count, depth.Sum, n+1)
	}
}

func TestLIStoppedRejects(t *testing.T) {
	env := newLIEnv(t)
	env.li.Stop()
	if err := env.li.enqueue([]core.LogRecord{pepRequestRecord("x")}); !errors.Is(err, ErrStopped) {
		t.Fatalf("got %v", err)
	}
	if st := env.li.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v, want the refused record dropped", st)
	}
}

func TestLISealOpenAndTag(t *testing.T) {
	env := newLIEnv(t)
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
	mk := crypto.NewMACKey(testKey)
	if env.li.DecisionTag("r1", xacml.Permit) != core.DecisionTag(&mk, "r1", xacml.Permit) {
		t.Fatal("LI tag differs from core tag")
	}
	if env.li.Name() != "li@t1" {
		t.Fatal("identity accessor wrong")
	}
}

func TestAgentObservationsReachChain(t *testing.T) {
	env := newLIEnv(t)
	agent := NewAgent("agent@t1", "t1", env.li, nil)
	req := xacml.NewRequest("ag-1").
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	res := xacml.Result{
		RequestID: "ag-1", Decision: xacml.Permit,
		PolicyID: "root", PolicyVersion: "v1", PolicyDigest: crypto.Sum([]byte("pol")),
	}

	pepDone := agent.PEPRequestSent(req)
	pdpDone := agent.PDPRequestReceived(req, "t9")
	pdpDone(res, true)
	pepDone(res, xacml.Permit, true)

	for _, kind := range []core.LogKind{core.KindPEPRequest, core.KindPDPRequest, core.KindPDPResponse, core.KindPEPResponse} {
		rec := waitForRecord(t, env.node, "ag-1", kind)
		if rec.ReqDigest != req.Digest() {
			t.Fatalf("%s: wrong request digest", kind)
		}
		if rec.Agent != "agent@t1" || rec.Tenant != "t1" {
			t.Fatalf("%s: provenance %q/%q", kind, rec.Agent, rec.Tenant)
		}
		// An edge record's origin is the agent's tenant; a PDP-side one's is
		// the tenant the PDP was called from.
		want := "t1"
		if kind == core.KindPDPRequest || kind == core.KindPDPResponse {
			want = "t9"
		}
		if rec.Origin != want {
			t.Fatalf("%s: origin %q, want %q", kind, rec.Origin, want)
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
	env := newLIEnv(t)
	agent := NewAgent("agent@t1", "t1", env.li, nil)
	env.li.Stop() // hand-overs now fail
	agent.PEPRequestSent(xacml.NewRequest("err-1"))(xacml.Result{}, 0, false)
	if st := agent.Stats(); st.Errors != 1 {
		t.Fatalf("agent stats = %+v", st)
	}
	if st := env.li.Stats(); st.Dropped != 1 {
		t.Fatalf("LI stats = %+v, want the request-side record dropped", st)
	}
}

// logTxs lists, in chain order, the kinds carried by each log or logbatch
// transaction that names reqID.
func logTxs(chain *blockchain.Chain, reqID string) [][]core.LogKind {
	var out [][]core.LogKind
	for _, recs := range loggedRecords(chain) {
		var kinds []core.LogKind
		for _, rec := range recs {
			if rec.ReqID == reqID {
				kinds = append(kinds, rec.Kind)
			}
		}
		if kinds != nil {
			out = append(out, kinds)
		}
	}
	return out
}

// An agent anchors one transaction per interception side:
// the request-side record is held until the side completes and the pair is
// one Merkle batch; a side that ends without its response, or with one leg
// muted, anchors the other record alone as a plain log call.
func TestAgentAnchorsOneTransactionPerSide(t *testing.T) {
	env := newLIEnv(t)
	agent := NewAgent("agent@t1", "t1", env.li, nil)
	res := xacml.Result{Decision: xacml.Permit, PolicyVersion: "v1", PolicyDigest: crypto.Sum([]byte("pol"))}
	pair := func(a, b core.LogKind) [][]core.LogKind { return [][]core.LogKind{{a, b}} }
	alone := func(k core.LogKind) [][]core.LogKind { return [][]core.LogKind{{k}} }

	cases := []struct {
		id   string
		mute core.LogKind
		run  func(req *xacml.Request)
		last core.LogKind // the record to wait for
		want [][]core.LogKind
	}{
		{"pep-pair", "", func(req *xacml.Request) {
			done := agent.PEPRequestSent(req)
			if st := env.li.Stats(); st.QueueLen != 0 || st.Submitted != 0 {
				t.Fatalf("request-side observation reached the LI before its side completed: %+v", st)
			}
			done(res, xacml.Permit, true)
		}, core.KindPEPResponse, pair(core.KindPEPRequest, core.KindPEPResponse)},
		{"pdp-pair", "", func(req *xacml.Request) { agent.PDPRequestReceived(req, "t1")(res, true) },
			core.KindPDPResponse, pair(core.KindPDPRequest, core.KindPDPResponse)},
		{"pep-failed", "", func(req *xacml.Request) { agent.PEPRequestSent(req)(xacml.Result{}, 0, false) },
			core.KindPEPRequest, alone(core.KindPEPRequest)},
		{"pdp-failed", "", func(req *xacml.Request) { agent.PDPRequestReceived(req, "t1")(xacml.Result{}, false) },
			core.KindPDPRequest, alone(core.KindPDPRequest)},
		{"response-muted", core.KindPEPResponse, func(req *xacml.Request) { agent.PEPRequestSent(req)(res, xacml.Permit, true) },
			core.KindPEPRequest, alone(core.KindPEPRequest)},
		{"request-muted", core.KindPDPRequest, func(req *xacml.Request) { agent.PDPRequestReceived(req, "t1")(res, true) },
			core.KindPDPResponse, alone(core.KindPDPResponse)},
	}
	for _, c := range cases {
		if c.mute != "" {
			agent.Mute(c.mute)
		}
		c.run(xacml.NewRequest(c.id).Add(xacml.CatSubject, "role", xacml.String("doctor")))
		waitForRecord(t, env.node, c.id, c.last)
		if got := logTxs(env.node.Chain(), c.id); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: transactions carry %v, want %v", c.id, got, c.want)
		}
	}
	if st := agent.Stats(); st.Observed != 10 || st.Errors != 0 {
		t.Fatalf("agent stats = %+v, want 10 observations (muted ones included), no error", st)
	}
	if st := env.li.Stats(); st.Dropped != 0 || st.Failed != 0 {
		t.Fatalf("LI stats = %+v", st)
	}
}

// Stop loses nothing silently: the entry still queued and the observation an
// exchange in flight still holds are both counted as Dropped, record by
// record, and the late hand-over is an agent error.
func TestLIStopCountsQueuedAndHeldRecords(t *testing.T) {
	li := unstartedLI(t, 8) // no flusher: what is queued stays queued
	agent := NewAgent("agent@q", "q", li, nil)
	res := xacml.Result{Decision: xacml.Permit}

	agent.PEPRequestSent(xacml.NewRequest("queued"))(res, xacml.Permit, true)
	held := agent.PEPRequestSent(xacml.NewRequest("held"))
	if st := li.Stats(); st.QueueLen != 1 || st.Dropped != 0 {
		t.Fatalf("before Stop: %+v, want one entry queued", st)
	}
	li.Stop()
	if st := li.Stats(); st.Dropped != 2 || st.QueueLen != 0 {
		t.Fatalf("after Stop: %+v, want the queued pair dropped", st)
	}
	held(res, xacml.Permit, true)
	if st := li.Stats(); st.Dropped != 4 || st.QueueLen != 0 {
		t.Fatalf("after the late hand-over: %+v, want the held pair dropped too", st)
	}
	if st := agent.Stats(); st.Observed != 4 || st.Errors != 1 {
		t.Fatalf("agent stats = %+v, want the late hand-over counted as one error", st)
	}
}

func TestNewLIValidation(t *testing.T) {
	if _, err := NewLI(LIConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := unstartedLI(t, 1).cfg
	cfg.Mode = SubmitAsync + 1
	if _, err := NewLI(cfg); err == nil {
		t.Fatal("unknown submit mode accepted")
	}
}

// unstartedLI builds an LI with a tiny queue and no workers running
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
		QueueSize: queueSize,
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
		err := li.enqueue([]core.LogRecord{pepRequestRecord(fmt.Sprintf("q-%d", i))})
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
		if err := li.enqueue([]core.LogRecord{pepRequestRecord(fmt.Sprintf("w-%d", i))}); err != nil {
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

// countingSender counts the sends its LI attempts.
type countingSender struct {
	txSender
	sends atomic.Int64
}

func (c *countingSender) Send(call contract.Call) (crypto.Digest, error) {
	c.sends.Add(1)
	return c.txSender.Send(call)
}

// A flush the chain refuses is retried once, then its records are counted
// as Failed, never as Submitted.
func TestLIFailedSubmissionCounted(t *testing.T) {
	li := unstartedLI(t, 1)
	counter := &countingSender{txSender: li.sender}
	li.sender = counter
	li.cfg.Node.Stop() // chain gone: submissions fail
	if err := li.enqueue([]core.LogRecord{pepRequestRecord("fail-1")}); err != nil {
		t.Fatal(err)
	}
	li.Start()
	defer li.Stop()
	for deadline := time.Now().Add(5 * time.Second); li.Stats().Failed == 0; {
		if time.Now().After(deadline) {
			t.Fatal("failed flush never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if st := li.Stats(); st.Failed != 1 || st.Submitted != 0 {
		t.Fatalf("stats = %+v, want 1 failed record and none submitted", st)
	}
	if n := counter.sends.Load(); n != 2 {
		t.Fatalf("sends = %d, want one try and one retry", n)
	}
}
