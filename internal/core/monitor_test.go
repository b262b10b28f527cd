package core

import (
	"context"
	"testing"
	"time"

	"drams/internal/blockchain"
	"drams/internal/clock"
	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/netsim"
	"drams/internal/xacml"
)

// nodeEnv is a single node with the log-match and policy contracts and
// three allowlisted identities: li, pap, analyser.
type nodeEnv struct {
	node     *blockchain.Node
	li       *crypto.Identity
	pap      *crypto.Identity
	analyser *crypto.Identity
	key      crypto.Key
}

// newNodeEnv starts the node mining on its own.
func newNodeEnv(t *testing.T, cfg MatchConfig) *nodeEnv {
	t.Helper()
	env := buildNodeEnv(t, cfg, true)
	env.node.Start()
	return env
}

// buildNodeEnv builds the node without starting it. With mine false the
// node never mines: its chain holds only the blocks a test adds.
func buildNodeEnv(t *testing.T, cfg MatchConfig, mine bool) *nodeEnv {
	t.Helper()
	mk := func(name string, b byte) *crypto.Identity {
		var seed [32]byte
		seed[0] = b
		copy(seed[1:], name)
		return crypto.NewIdentityFromSeed(name, seed)
	}
	env := &nodeEnv{
		li:       mk("li", 1),
		pap:      mk("pap", 2),
		analyser: mk("analyser", 3),
		key:      crypto.DeriveKey("monitor-test", "K"),
	}
	cfg.Analyser = "analyser"
	reg := contract.NewRegistry()
	reg.MustRegister(NewLogMatchContract(cfg))
	reg.MustRegister(&PolicyContract{PAP: "pap"})
	net := netsim.New(netsim.Config{Seed: 21})
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "mon-node",
		Chain: blockchain.Config{
			Difficulty: 4,
			Identities: []crypto.PublicIdentity{env.li.Public(), env.pap.Public(), env.analyser.Public()},
			Registry:   reg,
		},
		Network:            net,
		Mine:               mine,
		EmptyBlockInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Stop()
		net.Close()
	})
	env.node = node
	return env
}

func (env *nodeEnv) submit(t *testing.T, id *crypto.Identity, method string, args []byte) {
	t.Helper()
	env.submitCall(t, id, contract.Call{Contract: ContractName, Method: method, Args: args})
}

func (env *nodeEnv) submitCall(t *testing.T, id *crypto.Identity, call contract.Call) {
	t.Helper()
	sender := blockchain.NewSender(env.node, id)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rec, err := sender.SendAndWait(ctx, call, 1)
	if err != nil {
		t.Fatalf("submit %s: %v", call.Method, err)
	}
	if !rec.OK {
		t.Fatalf("submit %s failed on-chain: %s", call.Method, rec.Err)
	}
}

// anchorPolicy publishes ps through the policy contract; it is active from
// the end of the block that carries the update.
func (env *nodeEnv) anchorPolicy(t *testing.T, ps *xacml.PolicySet) {
	t.Helper()
	blob := ps.Encode()
	pu := PolicyUpdate{Version: ps.Version, Policy: blob, Digest: crypto.Sum(blob)}
	env.submitCall(t, env.pap, contract.Call{Contract: PolicyContractName, Method: MethodPolicyUpdate, Args: pu.Encode()})
}

// sealedExchange builds four consistent records with real encrypted
// contexts so the analyser can process them.
func sealedExchange(t *testing.T, key crypto.Key, reqID string, role string, decision xacml.Decision, polDig crypto.Digest) []LogRecord {
	t.Helper()
	cipher, err := crypto.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	req := xacml.NewRequest(reqID).Add(xacml.CatSubject, "role", xacml.String(role))
	res := xacml.Result{RequestID: reqID, Decision: decision,
		PolicyID: "root", PolicyVersion: "v1", PolicyDigest: polDig}
	seal := func(ec EncryptedContext) []byte {
		b, err := ec.Seal(cipher, reqID)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	mk := crypto.NewMACKey(key)
	dt := DecisionTag(&mk, reqID, decision)
	recs := []LogRecord{
		{Kind: KindPEPRequest, ReqID: reqID, Tenant: "t1", Agent: "a1",
			ReqDigest: req.Digest(), Payload: seal(EncryptedContext{Request: req})},
		{Kind: KindPDPRequest, ReqID: reqID, Tenant: "infra", Agent: "a2",
			ReqDigest: req.Digest(), Payload: seal(EncryptedContext{Request: req})},
		{Kind: KindPDPResponse, ReqID: reqID, Tenant: "infra", Agent: "a2",
			ReqDigest: req.Digest(), RespDigest: res.Digest(), DecisionTag: dt,
			PolicyVersion: "v1", PolicyDigest: polDig,
			Payload: seal(EncryptedContext{Request: req, Result: &res})},
		{Kind: KindPEPResponse, ReqID: reqID, Tenant: "t1", Agent: "a1",
			ReqDigest: req.Digest(), RespDigest: res.Digest(), DecisionTag: dt, EnforcedTag: dt,
			Payload: seal(EncryptedContext{Request: req, Result: &res, Enforced: decision})},
	}
	// Agents stamp their observation time; the monitor times the exchange
	// from it.
	for i := range recs {
		recs[i].TimestampUnixNano = time.Now().UnixNano()
	}
	return recs
}

func monitorPolicy() *xacml.PolicySet {
	permit := &xacml.Rule{ID: "permit-doctor", Effect: xacml.EffectPermit,
		Target: xacml.TargetMatching(xacml.CatSubject, "role", xacml.String("doctor"))}
	deny := &xacml.Rule{ID: "deny", Effect: xacml.EffectDeny}
	return &xacml.PolicySet{ID: "root", Version: "v1", Alg: xacml.DenyUnlessPermit,
		Items: []xacml.PolicyItem{{Policy: &xacml.Policy{ID: "p", Version: "1",
			Alg: xacml.FirstApplicable, Rules: []*xacml.Rule{permit, deny}}}}}
}

func TestMonitorSeesMatchedExchange(t *testing.T) {
	env := newNodeEnv(t, MatchConfig{TimeoutBlocks: 100, RequireVerdict: false})
	mon := NewMonitor(env.node, clock.System{})
	mon.Start()
	defer mon.Stop()

	polDig := monitorPolicy().Digest()
	env.anchorPolicy(t, monitorPolicy())

	for _, rec := range sealedExchange(t, env.key, "m-1", "doctor", xacml.Permit, polDig) {
		env.submit(t, env.li, MethodLogBatch, logArgs(rec))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := mon.WaitForMatched(ctx, "m-1"); err != nil {
		t.Fatal(err)
	}
	if !mon.Matched("m-1") {
		t.Fatal("Matched() lost the request")
	}
	st := mon.Stats()
	if st.LogsSeen < 4 || st.Matched != 1 || st.AlertsSeen != 0 || st.Tracked != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// WaitForMatched returns immediately for an already-matched request.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := mon.WaitForMatched(ctx2, "m-1"); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorAlertFlow(t *testing.T) {
	env := newNodeEnv(t, MatchConfig{TimeoutBlocks: 100, RequireVerdict: false})
	mon := NewMonitor(env.node, clock.System{})
	mon.Start()
	defer mon.Stop()

	stream, stop := mon.Subscribe(context.Background(), AlertFilter{})
	defer stop()

	polDig := monitorPolicy().Digest()
	env.anchorPolicy(t, monitorPolicy())

	recs := sealedExchange(t, env.key, "bad-1", "doctor", xacml.Permit, polDig)
	// Tamper the pdp.request digest → M1.
	recs[1].ReqDigest = crypto.Sum([]byte("evil"))
	env.submit(t, env.li, MethodLogBatch, logArgs(recs[0]))
	env.submit(t, env.li, MethodLogBatch, logArgs(recs[1]))

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	alert, err := mon.WaitForAlert(ctx, "bad-1", AlertRequestTampered)
	if err != nil {
		t.Fatal(err)
	}
	if alert.ReqID != "bad-1" {
		t.Fatalf("alert = %+v", alert)
	}
	select {
	case a := <-stream:
		if a.ReqID != "bad-1" || a.Type != AlertRequestTampered {
			t.Fatalf("streamed alert = %+v", a)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("alert not streamed to the subscription")
	}
	// Alerts are recorded and queryable.
	if got := mon.AlertsFor("bad-1"); len(got) != 1 || got[0].Type != AlertRequestTampered {
		t.Fatalf("AlertsFor = %v", got)
	}
	if got := mon.Alerts(); len(got) != 1 {
		t.Fatalf("Alerts = %v", got)
	}
	// Detection latency was measured from the exchange's anchored records,
	// and the exchange is no longer open.
	if st := mon.Stats(); st.DetectionLatencyMs.Count != 1 || st.DetectionLatencyMs.Max > 20_000 || st.Tracked != 0 {
		t.Fatalf("latency = %+v, tracked = %d", st.DetectionLatencyMs, st.Tracked)
	}
	// WaitForAlert on an already-seen alert returns immediately.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if _, err := mon.WaitForAlert(ctx2, "bad-1", AlertRequestTampered); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorWaitCancellation(t *testing.T) {
	env := newNodeEnv(t, MatchConfig{TimeoutBlocks: 100})
	mon := NewMonitor(env.node, clock.System{})
	mon.Start()
	defer mon.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := mon.WaitForAlert(ctx, "never", AlertRequestTampered); err == nil {
		t.Fatal("expected context error")
	}
	if err := mon.WaitForMatched(ctx, "never"); err == nil {
		t.Fatal("expected context error")
	}
}

func TestAnalyserProducesVerdictsAndM5(t *testing.T) {
	env := newNodeEnv(t, MatchConfig{TimeoutBlocks: 100, RequireVerdict: true})
	mon := NewMonitor(env.node, clock.System{})
	mon.Start()
	defer mon.Stop()

	// The analyser is handed no policy: it reads the anchored one from its
	// node's policy-contract state.
	ps := monitorPolicy()
	an, err := NewAnalyser("analyser", env.node, env.analyser, env.key)
	if err != nil {
		t.Fatal(err)
	}
	an.Start()
	defer an.Stop()
	env.anchorPolicy(t, ps)

	// Honest exchange: doctor → Permit. Analyser agrees; Matched fires.
	for _, rec := range sealedExchange(t, env.key, "ok-1", "doctor", xacml.Permit, ps.Digest()) {
		env.submit(t, env.li, MethodLogBatch, logArgs(rec))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mon.WaitForMatched(ctx, "ok-1"); err != nil {
		t.Fatal(err)
	}
	// The match needs the verdict on chain, but the analyser counts it only
	// once its Send has returned, which can be after the block was applied.
	for an.Stats().VerdictsSubmitted == 0 {
		select {
		case <-ctx.Done():
			t.Fatal("analyser produced no verdicts")
		case <-time.After(time.Millisecond):
		}
	}
	if an.Stats().MismatchesFound != 0 {
		t.Fatal("honest exchange flagged")
	}

	// Compromised PDP: doctor → Deny (wrong). Analyser disagrees → M5.
	for _, rec := range sealedExchange(t, env.key, "bad-1", "doctor", xacml.Deny, ps.Digest()) {
		env.submit(t, env.li, MethodLogBatch, logArgs(rec))
	}
	if _, err := mon.WaitForAlert(ctx, "bad-1", AlertDecisionIncorrect); err != nil {
		t.Fatal(err)
	}
	if an.Stats().MismatchesFound == 0 {
		t.Fatal("analyser did not count the mismatch")
	}
}

func TestAnalyserWrongKeyCannotVerdict(t *testing.T) {
	env := newNodeEnv(t, MatchConfig{TimeoutBlocks: 8, RequireVerdict: true})
	mon := NewMonitor(env.node, clock.System{})
	mon.Start()
	defer mon.Stop()

	ps := monitorPolicy()
	wrongKey := crypto.DeriveKey("wrong", "K")
	an, err := NewAnalyser("analyser", env.node, env.analyser, wrongKey)
	if err != nil {
		t.Fatal(err)
	}
	an.Start()
	defer an.Stop()

	env.anchorPolicy(t, ps)
	for _, rec := range sealedExchange(t, env.key, "nk-1", "doctor", xacml.Permit, ps.Digest()) {
		env.submit(t, env.li, MethodLogBatch, logArgs(rec))
	}
	// The analyser cannot decrypt the context → no verdict → M5 liveness
	// alert after the timeout window.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := mon.WaitForAlert(ctx, "nk-1", AlertVerdictMissing); err != nil {
		t.Fatal(err)
	}
	if an.Stats().Failures == 0 {
		t.Fatal("decrypt failures not counted")
	}
}

// The analyser judges pdp.response records only: the other kinds are passed
// over without a failure counted.
func TestAnalyserVerifiesOnlyPDPResponses(t *testing.T) {
	env := newNodeEnv(t, MatchConfig{TimeoutBlocks: 100})
	an, err := NewAnalyser("analyser", env.node, env.analyser, env.key)
	if err != nil {
		t.Fatal(err)
	}
	recs := sealedExchange(t, env.key, "kind-1", "doctor", xacml.Permit, crypto.Digest{})
	for _, rec := range recs {
		got, ok := an.extractRecord(rec.Encode())
		if want := rec.Kind == KindPDPResponse; ok != want {
			t.Fatalf("%s: extracted = %v, want %v", rec.Kind, ok, want)
		}
		if ok && got.ReqID != rec.ReqID {
			t.Fatalf("%s: extracted request %q, want %q", rec.Kind, got.ReqID, rec.ReqID)
		}
	}
	if n := an.Stats().Failures; n != 0 {
		t.Fatalf("%d failures counted, want 0", n)
	}
}

// A reorganisation orphans the block of a batched exchange before the
// analyser reads its pdp.response. The analyser judges the record as it
// finds it; its verdict lands on the winning branch, where the re-mined
// batch completes the exchange against it, and the event delivered again
// yields byte-identical verdict args: one Matched, no alert, no failure.
func TestAnalyserVerdictAcrossReorg(t *testing.T) {
	env := buildNodeEnv(t, MatchConfig{TimeoutBlocks: 3, RequireVerdict: true}, false)
	node := env.node
	an, err := NewAnalyser("analyser", node, env.analyser, env.key)
	if err != nil {
		t.Fatal(err)
	}
	c := node.Chain()
	cur := c.Cursor()

	// drain reads the blocks added since its last read, as a follower
	// does: it counts matches and collects alerts, and returns the
	// LogStored payloads.
	matched := 0
	var alerts []Alert
	drain := func() [][]byte {
		var stored [][]byte
		blocks, next, _ := c.EventsAfter(cur)
		cur = next
		for _, b := range blocks {
			for _, e := range b.Events {
				switch e.Type {
				case EventLogStored:
					stored = append(stored, e.Payload)
				case EventMatched:
					matched++
				case EventAlert:
					a, err := DecodeAlert(e.Payload)
					if err != nil {
						t.Fatal(err)
					}
					alerts = append(alerts, a)
				}
			}
		}
		return stored
	}
	tx := func(id *crypto.Identity, contractName, method string, args []byte) blockchain.Transaction {
		tx, err := blockchain.NewTransaction(id, c.Height(), contract.Call{Contract: contractName, Method: method, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}

	ps := monitorPolicy()
	blob := ps.Encode()
	pu := PolicyUpdate{Version: ps.Version, Policy: blob, Digest: crypto.Sum(blob)}
	b1 := addBlock(t, c, c.Genesis(), tx(env.pap, PolicyContractName, MethodPolicyUpdate, pu.Encode()))
	lb, err := NewLogBatch(sealedExchange(t, env.key, "rg-1", "doctor", xacml.Permit, ps.Digest()))
	if err != nil {
		t.Fatal(err)
	}
	addBlock(t, c, b1.Hash(), tx(env.li, ContractName, MethodLogBatch, lb.Encode()))
	held := drain()
	if len(held) != 4 {
		t.Fatalf("the batch block delivered %d records, want 4", len(held))
	}

	// A longer sibling branch wins before the analyser reads the records.
	b2 := addBlock(t, c, b1.Hash())
	head := addBlock(t, c, b2.Hash()).Hash()
	if h, _ := c.Head(); h != head {
		t.Fatal("the longer sibling branch did not win")
	}
	if len(drain()) != 0 {
		t.Fatal("the sibling branch delivered records")
	}
	for _, p := range held {
		an.handleLog(p)
	}
	// What the node does after accepting a block: pool the transactions of
	// the blocks reorganised away.
	for _, tx := range c.TakeAbandoned() {
		if err := node.Mempool().Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	// Mine the pool, handing the analyser every record delivered again, past
	// the exchange's deadline.
	for range 6 {
		head = addBlock(t, c, head, node.Mempool().Collect(64, c, head)...).Hash()
		node.Mempool().Prune(c)
		for _, p := range drain() {
			an.handleLog(p)
		}
	}
	if node.Mempool().Len() != 0 {
		t.Fatalf("%d transactions left unmined", node.Mempool().Len())
	}
	st := an.Stats()
	if matched != 1 || len(alerts) != 0 || st.Failures != 0 {
		t.Fatalf("matched %d, alerts %+v, analyser failures %d; want 1, none, 0", matched, alerts, st.Failures)
	}
	// One verdict for the orphaned delivery, one identical for the re-mined.
	if st.VerdictsSubmitted != 2 {
		t.Fatalf("%d verdicts submitted, want 2", st.VerdictsSubmitted)
	}
}

// policyCase is one record claim handed to policyFor and the anchored
// policy it must resolve to.
type policyCase struct {
	name    string
	version string
	digest  crypto.Digest
	want    *xacml.PolicySet
}

// checkPolicyFor runs each case through policyFor in order, so a case can
// rely on the cache the ones before it filled.
func checkPolicyFor(t *testing.T, an *Analyser, cases []policyCase) {
	t.Helper()
	for _, tc := range cases {
		ap, err := an.policyFor(LogRecord{PolicyVersion: tc.version, PolicyDigest: tc.digest})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ap.version != tc.want.Version || ap.digest != tc.want.Digest() {
			t.Fatalf("%s: got %s (%s), want %s", tc.name, ap.version, ap.digest.Short(), tc.want.Version)
		}
	}
}

// With nothing anchored the analyser has no policy to judge by, whatever
// version a record claims.
func TestAnalyserNoPolicy(t *testing.T) {
	env := newNodeEnv(t, MatchConfig{TimeoutBlocks: 100})
	an, err := NewAnalyser("analyser", env.node, env.analyser, env.key)
	if err != nil {
		t.Fatal(err)
	}
	v1 := monitorPolicy()
	for _, rec := range []LogRecord{
		{PolicyVersion: "v1", PolicyDigest: v1.Digest()},
		{},
	} {
		if _, err := an.policyFor(rec); err == nil {
			t.Fatalf("policyFor found a policy for %q before any was anchored", rec.PolicyVersion)
		}
	}
}

// policyFor loads the version a record claims when the policy contract
// anchored it with the claimed digest.
func TestAnalyserPolicyFor(t *testing.T) {
	env := newNodeEnv(t, MatchConfig{TimeoutBlocks: 100})
	an, err := NewAnalyser("analyser", env.node, env.analyser, env.key)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := monitorPolicy(), xacml.StandardPolicy("v2")
	env.anchorPolicy(t, v1)
	env.anchorPolicy(t, v2) // active from here on
	checkPolicyFor(t, an, []policyCase{
		{"v1 claimed after the flip to v2", "v1", v1.Digest(), v1},
		{"v2 claimed", "v2", v2.Digest(), v2},
	})
}

// A claim that does not match what the policy contract anchored is judged
// by the active version, never by the policy the record names.
func TestAnalyserDetectsWrongAnchoredPolicy(t *testing.T) {
	env := newNodeEnv(t, MatchConfig{TimeoutBlocks: 100})
	an, err := NewAnalyser("analyser", env.node, env.analyser, env.key)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := monitorPolicy(), xacml.StandardPolicy("v2")
	env.anchorPolicy(t, v1)
	env.anchorPolicy(t, v2) // active from here on
	checkPolicyFor(t, an, []policyCase{
		{"v1 claimed honestly", "v1", v1.Digest(), v1},
		{"forged digest", "v1", crypto.Sum([]byte("forged")), v2},
		// v1 is cached by now; the cache must not answer for another label.
		{"unanchored version carrying v1's digest", "v9", v1.Digest(), v2},
	})
}
