package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/xacml"
)

var (
	testKey = crypto.DeriveKey("test", "li-key")
	testMAC = crypto.NewMACKey(testKey)
)

// matchEnv drives the log-match contract directly through the engine, next
// to the policy contract its M6 check reads.
type matchEnv struct {
	t      testing.TB
	engine *contract.Engine
	st     *contract.State
	height uint64
}

// readDone reports whether a request completed cleanly.
func readDone(st contract.StateDB, reqID string) bool {
	_, ok := st.Get(doneKey(reqID))
	return ok
}

func newMatchEnv(t testing.TB, cfg MatchConfig) *matchEnv {
	t.Helper()
	reg := contract.NewRegistry()
	reg.MustRegister(NewLogMatchContract(cfg))
	reg.MustRegister(&PolicyContract{PAP: "pap"})
	return &matchEnv{t: t, engine: contract.NewEngine(reg), st: contract.NewState(), height: 1}
}

func (e *matchEnv) call(caller, method string, args []byte) ([]contract.Event, error) {
	e.t.Helper()
	return e.callTo(ContractName, caller, method, args)
}

func (e *matchEnv) callTo(name, caller, method string, args []byte) ([]contract.Event, error) {
	e.t.Helper()
	ctx := contract.CallCtx{Height: e.height, Caller: caller, TxID: crypto.Sum(args)}
	return e.engine.Execute(ctx, e.st, contract.Call{Contract: name, Method: method, Args: args})
}

func (e *matchEnv) mustCall(caller, method string, args []byte) []contract.Event {
	e.t.Helper()
	evs, err := e.call(caller, method, args)
	if err != nil {
		e.t.Fatalf("%s/%s: %v", caller, method, err)
	}
	return evs
}

func (e *matchEnv) onBlock() []contract.Event {
	evs := e.engine.OnBlock(e.height, time.Unix(int64(e.height), 0), e.st)
	e.height++
	return evs
}

// anchorPolicy publishes xacml.StandardPolicy(version) through the policy
// contract and closes the block, which activates it.
func (e *matchEnv) anchorPolicy(version string) {
	e.t.Helper()
	if _, err := e.callTo(PolicyContractName, "pap", MethodPolicyUpdate, updateArgs(version, 0).Encode()); err != nil {
		e.t.Fatalf("anchor policy %s: %v", version, err)
	}
	e.onBlock()
}

// exchange builds the four consistent records of one clean exchange.
type exchange struct {
	reqID    string
	reqDig   crypto.Digest
	respDig  crypto.Digest
	decision xacml.Decision
	polVer   string
	polDig   crypto.Digest
}

func cleanExchange(reqID string) exchange {
	return exchange{
		reqID:    reqID,
		reqDig:   crypto.Sum([]byte("request-" + reqID)),
		respDig:  crypto.Sum([]byte("response-" + reqID)),
		decision: xacml.Permit,
		polVer:   "v1",
		polDig:   updateArgs("v1", 0).Digest,
	}
}

func (x exchange) pepRequest() LogRecord {
	return LogRecord{Kind: KindPEPRequest, ReqID: x.reqID, Tenant: "t1", Origin: "t1", Agent: "agent-t1", ReqDigest: x.reqDig}
}
func (x exchange) pdpRequest() LogRecord {
	return LogRecord{Kind: KindPDPRequest, ReqID: x.reqID, Tenant: "infra", Origin: "t1", Agent: "agent-infra", ReqDigest: x.reqDig}
}
func (x exchange) pdpResponse() LogRecord {
	return LogRecord{Kind: KindPDPResponse, ReqID: x.reqID, Tenant: "infra", Origin: "t1", Agent: "agent-infra",
		ReqDigest: x.reqDig, RespDigest: x.respDig,
		DecisionTag:   DecisionTag(&testMAC, x.reqID, x.decision),
		PolicyVersion: x.polVer, PolicyDigest: x.polDig}
}
func (x exchange) pepResponse(enforced xacml.Decision) LogRecord {
	return LogRecord{Kind: KindPEPResponse, ReqID: x.reqID, Tenant: "t1", Origin: "t1", Agent: "agent-t1",
		ReqDigest: x.reqDig, RespDigest: x.respDig,
		DecisionTag: DecisionTag(&testMAC, x.reqID, x.decision),
		EnforcedTag: DecisionTag(&testMAC, x.reqID, enforced)}
}
func (x exchange) verdict(expected xacml.Decision) Verdict {
	return Verdict{ReqID: x.reqID, ExpectedTag: DecisionTag(&testMAC, x.reqID, expected),
		PolicyDigest: x.polDig, Analyser: "analyser"}
}

func alertsOf(evs []contract.Event) []Alert {
	var out []Alert
	for _, e := range evs {
		if e.Type == EventAlert {
			a, err := DecodeAlert(e.Payload)
			if err == nil {
				out = append(out, a)
			}
		}
	}
	return out
}

func hasEvent(evs []contract.Event, typ string) bool {
	for _, e := range evs {
		if e.Type == typ {
			return true
		}
	}
	return false
}

func defaultCfg() MatchConfig {
	return MatchConfig{TimeoutBlocks: 3, Analyser: "analyser", RequireVerdict: true}
}

func TestCleanExchangeMatches(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-1")
	env.anchorPolicy(x.polVer)

	var all []contract.Event
	all = append(all, env.mustCall("li-t1", MethodLogBatch, logArgs(x.pepRequest()))...)
	all = append(all, env.mustCall("li-infra", MethodLogBatch, logArgs(x.pdpRequest()))...)
	all = append(all, env.mustCall("li-infra", MethodLogBatch, logArgs(x.pdpResponse()))...)
	all = append(all, env.mustCall("li-t1", MethodLogBatch, logArgs(x.pepResponse(x.decision)))...)
	all = append(all, env.mustCall("analyser", MethodVerdict, x.verdict(x.decision).Encode())...)

	if got := alertsOf(all); len(got) != 0 {
		t.Fatalf("clean exchange raised alerts: %v", got)
	}
	if !hasEvent(all, EventMatched) {
		t.Fatal("no Matched event")
	}
	ns := contract.Namespace(env.st, ContractName)
	if !readDone(ns, "req-1") {
		t.Fatal("request not marked done")
	}
	// Timeouts later must not fire for a done request.
	env.height += 10
	if alerts := alertsOf(env.onBlock()); len(alerts) != 0 {
		t.Fatalf("done request raised timeout alerts: %v", alerts)
	}
}

func TestM1RequestTampered(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-m1")
	env.anchorPolicy(x.polVer)
	env.mustCall("li-t1", MethodLogBatch, logArgs(x.pepRequest()))
	tampered := x.pdpRequest()
	tampered.ReqDigest = crypto.Sum([]byte("evil"))
	evs := env.mustCall("li-infra", MethodLogBatch, logArgs(tampered))
	alerts := alertsOf(evs)
	if len(alerts) != 1 || alerts[0].Type != AlertRequestTampered {
		t.Fatalf("alerts = %v", alerts)
	}
	if !strings.Contains(alerts[0].Detail, "PEP egress") {
		t.Fatalf("detail = %q", alerts[0].Detail)
	}
}

func TestM2ResponseTampered(t *testing.T) {
	for _, mode := range []string{"digest", "decision"} {
		env := newMatchEnv(t, defaultCfg())
		x := cleanExchange("req-m2-" + mode)
		env.anchorPolicy(x.polVer)
		env.mustCall("li-infra", MethodLogBatch, logArgs(x.pdpResponse()))
		rec := x.pepResponse(x.decision)
		switch mode {
		case "digest":
			rec.RespDigest = crypto.Sum([]byte("evil"))
		case "decision":
			// PEP received a flipped decision (and enforced it).
			rec.DecisionTag = DecisionTag(&testMAC, x.reqID, xacml.Deny)
			rec.EnforcedTag = rec.DecisionTag
		}
		evs := env.mustCall("li-t1", MethodLogBatch, logArgs(rec))
		alerts := alertsOf(evs)
		found := false
		for _, a := range alerts {
			if a.Type == AlertResponseTampered {
				found = true
			}
		}
		if !found {
			t.Fatalf("mode %s: alerts = %v", mode, alerts)
		}
	}
}

func TestM3Timeout(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-m3")
	env.anchorPolicy(x.polVer)
	env.mustCall("li-t1", MethodLogBatch, logArgs(x.pepRequest()))
	// Nothing else arrives. Advance past the deadline.
	var alerts []Alert
	for i := 0; i < 6; i++ {
		alerts = append(alerts, alertsOf(env.onBlock())...)
	}
	if len(alerts) != 1 || alerts[0].Type != AlertMessageSuppressed {
		t.Fatalf("alerts = %v", alerts)
	}
	for _, missing := range []string{string(KindPDPRequest), string(KindPDPResponse), string(KindPEPResponse)} {
		if !strings.Contains(alerts[0].Detail, missing) {
			t.Fatalf("detail %q missing %q", alerts[0].Detail, missing)
		}
	}
	if strings.Contains(alerts[0].Detail, string(KindPEPRequest)) {
		t.Fatalf("detail %q lists the present record", alerts[0].Detail)
	}
}

func TestM3DeadlineNotRearmed(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-m3b")
	env.anchorPolicy(x.polVer)
	env.mustCall("li-t1", MethodLogBatch, logArgs(x.pepRequest()))
	env.height += 2
	env.mustCall("li-infra", MethodLogBatch, logArgs(x.pdpRequest())) // second record must not extend the deadline
	var alerts []Alert
	for i := 0; i < 8; i++ {
		alerts = append(alerts, alertsOf(env.onBlock())...)
	}
	if len(alerts) != 1 || alerts[0].Type != AlertMessageSuppressed {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestM4EnforcementMismatch(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-m4")
	env.anchorPolicy(x.polVer)
	env.mustCall("li-infra", MethodLogBatch, logArgs(x.pdpResponse()))
	// PEP received Permit but enforced Deny.
	evs := env.mustCall("li-t1", MethodLogBatch, logArgs(x.pepResponse(xacml.Deny)))
	alerts := alertsOf(evs)
	if len(alerts) != 1 || alerts[0].Type != AlertEnforcementMismatch {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestM5DecisionIncorrect(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-m5")
	env.anchorPolicy(x.polVer)
	env.mustCall("li-infra", MethodLogBatch, logArgs(x.pdpResponse())) // PDP says Permit
	evs := env.mustCall("analyser", MethodVerdict, x.verdict(xacml.Deny).Encode())
	alerts := alertsOf(evs)
	if len(alerts) != 1 || alerts[0].Type != AlertDecisionIncorrect {
		t.Fatalf("alerts = %v", alerts)
	}
	// Order independence: verdict first, then pdp.response.
	env2 := newMatchEnv(t, defaultCfg())
	env2.anchorPolicy(x.polVer)
	env2.mustCall("analyser", MethodVerdict, x.verdict(xacml.Deny).Encode())
	evs2 := env2.mustCall("li-infra", MethodLogBatch, logArgs(x.pdpResponse()))
	alerts2 := alertsOf(evs2)
	if len(alerts2) != 1 || alerts2[0].Type != AlertDecisionIncorrect {
		t.Fatalf("reversed order alerts = %v", alerts2)
	}
}

func TestM6PolicyTampered(t *testing.T) {
	x := cleanExchange("req-m6")
	cases := []struct {
		name   string
		setup  func(env *matchEnv)
		mutate func(rec *LogRecord)
		detail string
	}{
		{
			name:   "unanchored version",
			setup:  func(env *matchEnv) {}, // no active policy
			mutate: func(rec *LogRecord) {},
			detail: "not anchored",
		},
		{
			name: "stale version",
			setup: func(env *matchEnv) {
				env.anchorPolicy("v1")
				env.anchorPolicy("v2")
				for i := 0; i < 4; i++ { // past the Δ = 3 grace window of v1
					env.onBlock()
				}
			},
			mutate: func(rec *LogRecord) {}, // claims v1 while v2 active
			detail: "active version",
		},
		{
			name:  "digest mismatch",
			setup: func(env *matchEnv) { env.anchorPolicy("v1") },
			mutate: func(rec *LogRecord) {
				rec.PolicyDigest = crypto.Sum([]byte("forged-policy"))
			},
			detail: "differs from anchored",
		},
	}
	for _, c := range cases {
		env := newMatchEnv(t, defaultCfg())
		c.setup(env)
		rec := x.pdpResponse()
		c.mutate(&rec)
		evs := env.mustCall("li-infra", MethodLogBatch, logArgs(rec))
		alerts := alertsOf(evs)
		if len(alerts) != 1 || alerts[0].Type != AlertPolicyTampered {
			t.Fatalf("%s: alerts = %v", c.name, alerts)
		}
		if !strings.Contains(alerts[0].Detail, c.detail) {
			t.Fatalf("%s: detail = %q", c.name, alerts[0].Detail)
		}
	}
}

func TestVerdictMissingTimeout(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-vm")
	env.anchorPolicy(x.polVer)
	for _, rec := range []LogRecord{x.pepRequest(), x.pdpRequest(), x.pdpResponse(), x.pepResponse(x.decision)} {
		env.mustCall("li", MethodLogBatch, logArgs(rec))
	}
	var alerts []Alert
	for i := 0; i < 6; i++ {
		alerts = append(alerts, alertsOf(env.onBlock())...)
	}
	if len(alerts) != 1 || alerts[0].Type != AlertVerdictMissing {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestVerdictOptional(t *testing.T) {
	cfg := defaultCfg()
	cfg.RequireVerdict = false
	env := newMatchEnv(t, cfg)
	x := cleanExchange("req-opt")
	env.anchorPolicy(x.polVer)
	var all []contract.Event
	for _, rec := range []LogRecord{x.pepRequest(), x.pdpRequest(), x.pdpResponse(), x.pepResponse(x.decision)} {
		all = append(all, env.mustCall("li", MethodLogBatch, logArgs(rec))...)
	}
	if !hasEvent(all, EventMatched) {
		t.Fatal("exchange without verdict should match when verdicts optional")
	}
	for i := 0; i < 6; i++ {
		if alerts := alertsOf(env.onBlock()); len(alerts) != 0 {
			t.Fatalf("alerts = %v", alerts)
		}
	}
}

func TestEquivocationAndIdempotence(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-eq")
	env.anchorPolicy(x.polVer)
	rec := x.pepRequest()
	env.mustCall("li-t1", MethodLogBatch, logArgs(rec))
	// Identical retry: no alert, no event.
	evs := env.mustCall("li-t1", MethodLogBatch, logArgs(rec))
	if len(evs) != 0 {
		t.Fatalf("idempotent retry produced events: %v", evs)
	}
	// Conflicting record for the same point: equivocation.
	conflict := rec
	conflict.ReqDigest = crypto.Sum([]byte("other"))
	evs = env.mustCall("li-t1", MethodLogBatch, logArgs(conflict))
	alerts := alertsOf(evs)
	if len(alerts) != 1 || alerts[0].Type != AlertEquivocation {
		t.Fatalf("alerts = %v", alerts)
	}
	// Original record is preserved.
	ns := contract.Namespace(env.st, ContractName)
	stored, ok := ReadStoredRecord(ns, x.reqID, KindPEPRequest)
	if !ok || stored.ReqDigest != rec.ReqDigest {
		t.Fatal("original record not preserved")
	}
}

func TestAlertDeduplication(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-dd")
	env.anchorPolicy(x.polVer)
	env.mustCall("li-t1", MethodLogBatch, logArgs(x.pepRequest()))
	tampered := x.pdpRequest()
	tampered.ReqDigest = crypto.Sum([]byte("evil"))
	first := alertsOf(env.mustCall("li-infra", MethodLogBatch, logArgs(tampered)))
	if len(first) != 1 {
		t.Fatalf("first = %v", first)
	}
	// Subsequent records re-run checks but must not duplicate the alert.
	resp := x.pdpResponse()
	later := alertsOf(env.mustCall("li-infra", MethodLogBatch, logArgs(resp)))
	for _, a := range later {
		if a.Type == AlertRequestTampered {
			t.Fatal("M1 alert duplicated")
		}
	}
}

func TestAccessControlOnMethods(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-ac")
	if _, err := env.call("mallory", MethodVerdict, x.verdict(xacml.Permit).Encode()); err == nil {
		t.Fatal("foreign verdict accepted")
	}
	if _, err := env.call("li", "unknown-method", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
	// The log-match contract anchors no policies: its former "policy"
	// method is one more unknown method, PAP-signed or not.
	before := env.st.Digest()
	args := mustJSON(t, map[string]any{"version": "v1", "digest": x.polDig, "active": true})
	if _, err := env.call("pap", "policy", args); !errors.Is(err, contract.ErrUnknownMethod) {
		t.Fatalf("policy method: err = %v, want ErrUnknownMethod", err)
	}
	if env.st.Digest() != before {
		t.Fatal("rejected policy call changed state")
	}
}

// TestPolicyReAnchorConflict: a second, different policy published under an
// anchored version does not move the M6 anchor — a pdp.response carrying
// the attempted digest is policy-tampered, the original still matches.
func TestPolicyReAnchorConflict(t *testing.T) {
	cfg := defaultCfg()
	cfg.RequireVerdict = false
	env := newMatchEnv(t, cfg)
	env.anchorPolicy("v1")
	other := xacml.RestrictedPolicy("v1").Encode()
	conflict := PolicyUpdate{Version: "v1", Policy: other, Digest: crypto.Sum(other)}
	if _, err := env.callTo(PolicyContractName, "pap", MethodPolicyUpdate, conflict.Encode()); err != nil {
		t.Fatal(err)
	}
	env.onBlock()

	forged := cleanExchange("req-forged").pdpResponse()
	forged.PolicyDigest = conflict.Digest
	alerts := alertsOf(env.mustCall("li-infra", MethodLogBatch, logArgs(forged)))
	if len(alerts) != 1 || alerts[0].Type != AlertPolicyTampered ||
		!strings.Contains(alerts[0].Detail, "differs from anchored") {
		t.Fatalf("attempted digest: alerts = %v", alerts)
	}
	x := cleanExchange("req-orig")
	var all []contract.Event
	for _, rec := range []LogRecord{x.pepRequest(), x.pdpRequest(), x.pdpResponse(), x.pepResponse(x.decision)} {
		all = append(all, env.mustCall("li", MethodLogBatch, logArgs(rec))...)
	}
	if len(alertsOf(all)) != 0 || !hasEvent(all, EventMatched) {
		t.Fatalf("original digest no longer matches: %v", alertsOf(all))
	}
}

func TestRecordValidation(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	bad := []LogRecord{
		{},                                 // no id
		{Kind: KindPEPRequest, ReqID: "x"}, // no digest
		{Kind: "weird", ReqID: "x", ReqDigest: crypto.Sum([]byte("r"))},          // unknown kind
		{Kind: KindPDPResponse, ReqID: "x", RespDigest: crypto.Sum([]byte("r"))}, // missing tag
	}
	for i, rec := range bad {
		if _, err := env.call("li", MethodLogBatch, logArgs(rec)); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	if _, err := env.call("li", MethodLogBatch, []byte("{")); err == nil {
		t.Error("garbage args accepted")
	}
	if _, err := env.call("analyser", MethodVerdict, []byte("{")); err == nil {
		t.Error("garbage verdict accepted")
	}
	empty := Verdict{ReqID: "", ExpectedTag: crypto.Digest{}}
	if _, err := env.call("analyser", MethodVerdict, empty.Encode()); err == nil {
		t.Error("empty verdict accepted")
	}
}

func TestDecisionTagProperties(t *testing.T) {
	// Equal decision+request → equal tags; anything else differs.
	a := DecisionTag(&testMAC, "r1", xacml.Permit)
	if a != DecisionTag(&testMAC, "r1", xacml.Permit) {
		t.Fatal("tag not deterministic")
	}
	if a == DecisionTag(&testMAC, "r1", xacml.Deny) {
		t.Fatal("different decisions share a tag")
	}
	if a == DecisionTag(&testMAC, "r2", xacml.Permit) {
		t.Fatal("different requests share a tag (replay risk)")
	}
	other := crypto.NewMACKey(crypto.DeriveKey("other", "key"))
	if a == DecisionTag(&other, "r1", xacml.Permit) {
		t.Fatal("different keys share a tag")
	}
	// Extended indeterminates collapse: tag is over the simple lattice.
	if DecisionTag(&testMAC, "r1", xacml.IndeterminateD) != DecisionTag(&testMAC, "r1", xacml.IndeterminateDP) {
		t.Fatal("indeterminate flavours should share a tag")
	}
}

func TestEncryptedContextRoundTrip(t *testing.T) {
	cipher, err := crypto.NewCipher(testKey)
	if err != nil {
		t.Fatal(err)
	}
	req := xacml.NewRequest("rq").Add(xacml.CatSubject, "role", xacml.String("doctor"))
	res := xacml.Result{RequestID: "rq", Decision: xacml.Permit}
	ec := EncryptedContext{Request: req, Result: &res, Enforced: xacml.Permit}
	sealed, err := ec.Seal(cipher, "rq")
	if err != nil {
		t.Fatal(err)
	}
	back, err := OpenContext(cipher, "rq", sealed)
	if err != nil {
		t.Fatal(err)
	}
	if back.Request.Digest() != req.Digest() || back.Result.Decision != xacml.Permit {
		t.Fatal("context round trip mismatch")
	}
	// Binding to reqID: opening under another request id fails.
	if _, err := OpenContext(cipher, "other", sealed); err == nil {
		t.Fatal("context not bound to request id")
	}
	// Wrong key fails.
	otherCipher, _ := crypto.NewCipher(crypto.DeriveKey("x", "y"))
	if _, err := OpenContext(otherCipher, "rq", sealed); err == nil {
		t.Fatal("context opened with wrong key")
	}
}

// Anything the PEP↔PDP wire carries, the seal holds: every request
// DecodeRequest accepts comes back from Seal and OpenContext with the same
// IDs and the same values, bit for bit and zone for zone, beside its result.
func TestSealHoldsEveryWireRequest(t *testing.T) {
	cipher, err := crypto.NewCipher(testKey)
	if err != nil {
		t.Fatal(err)
	}
	zone := time.FixedZone("", -(9*3600 + 30*60))
	edge := xacml.NewRequest("edge").
		Add(xacml.CatSubject, "role", xacml.String("")).
		Add(xacml.CatSubject, "role", xacml.String("médecin ✓")).
		Add(xacml.CatResource, "n", xacml.Int(math.MinInt64)).
		Add(xacml.CatResource, "n", xacml.Int(math.MaxInt64)).
		Add(xacml.CatResource, "f", xacml.Float(math.Copysign(0, -1))).
		Add(xacml.CatResource, "f", xacml.Float(math.MaxFloat64)).
		Add(xacml.CatResource, "f", xacml.Float(math.SmallestNonzeroFloat64)).
		Add(xacml.CatAction, "b", xacml.Bool(false)).
		Add(xacml.CatAction, "b", xacml.Bool(true)).
		Add(xacml.CatEnvironment, "t", xacml.Time(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC))).
		Add(xacml.CatEnvironment, "t", xacml.Value{T: xacml.TypeTime, Tm: time.Date(9999, 12, 31, 23, 59, 59, 999999999, zone)})
	edge.TraceID = "trace-edge"
	edge.Attrs[xacml.CatEnvironment]["empty"] = xacml.Bag{}
	reqs := []*xacml.Request{edge, xacml.NewRequest("")}
	gen := xacml.NewGenerator(7, xacml.DefaultGenParams())
	for i := 0; i < 50; i++ {
		reqs = append(reqs, gen.Request(fmt.Sprintf("gen-%d", i)))
	}
	res := xacml.Result{RequestID: "r", Decision: xacml.Deny, Extended: xacml.Deny,
		Obligations: []xacml.Obligation{{ID: "log", FulfillOn: xacml.EffectDeny, Params: map[string]string{"to": "soc"}}},
		PolicyID:    "root", PolicyVersion: "v1", PolicyDigest: crypto.Sum([]byte("v1"))}
	for _, sent := range reqs {
		req, err := xacml.DecodeRequest(sent.Encode())
		if err != nil {
			t.Fatalf("%q: the wire refused it: %v", sent.ID, err)
		}
		sealed, err := EncryptedContext{Request: req, Result: &res, Enforced: xacml.Deny, Note: "n"}.Seal(cipher, req.ID)
		if err != nil {
			t.Fatal(err)
		}
		back, err := OpenContext(cipher, req.ID, sealed)
		if err != nil {
			t.Fatalf("%q: %v", req.ID, err)
		}
		if back.Request.ID != req.ID || back.Request.TraceID != req.TraceID || !sameValues(back.Request, req) {
			t.Fatalf("%q: request changed through the seal", req.ID)
		}
		if !reflect.DeepEqual(*back.Result, res) || back.Enforced != xacml.Deny || back.Note != "n" {
			t.Fatalf("%q: context changed through the seal: %+v", req.ID, back)
		}
	}
}

// sameValues compares two requests' values bit for bit, time zones included.
func sameValues(a, b *xacml.Request) bool {
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for cat, m := range a.Attrs {
		n, ok := b.Attrs[cat]
		if !ok || len(m) != len(n) {
			return false
		}
		for id, bag := range m {
			other, ok := n[id]
			if !ok || len(bag) != len(other) {
				return false
			}
			for i, v := range bag {
				w := other[i]
				_, vz := v.Tm.Zone()
				_, wz := w.Tm.Zone()
				if v.T != w.T || v.S != w.S || v.I != w.I || math.Float64bits(v.F) != math.Float64bits(w.F) ||
					v.B != w.B || !v.Tm.Equal(w.Tm) || vz != wz {
					return false
				}
			}
		}
	}
	return true
}

// A record, a batch and a verdict each have one encoding. The JSON args an
// older build sent are malformed args here and change no state: nothing
// parses them.
func TestJSONArgsRefused(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-json")
	env.anchorPolicy(x.polVer)
	rec := map[string]any{"kind": string(KindPEPRequest), "reqId": x.reqID, "tenant": "t1",
		"agent": "agent-t1", "reqDigest": x.reqDig.String(), "ts": 0}
	calls := []struct {
		caller, method string
		args           []byte
	}{
		{"li-t1", MethodLogBatch, mustJSON(t, map[string]any{"root": x.reqDig.String(), "records": []any{rec}})},
		{"analyser", MethodVerdict, mustJSON(t, map[string]any{"reqId": x.reqID,
			"expectedTag":  DecisionTag(&testMAC, x.reqID, x.decision).String(),
			"policyDigest": x.polDig.String(), "analyser": "analyser"})},
	}
	before := env.st.Digest()
	for _, c := range calls {
		if _, err := env.call(c.caller, c.method, c.args); !errors.Is(err, contract.ErrBadArgs) {
			t.Errorf("%s with JSON args: err = %v, want ErrBadArgs", c.method, err)
		}
	}
	if env.st.Digest() != before {
		t.Fatal("refused JSON args changed state")
	}
}

// A record reaches the chain only in a logbatch. The log method a record once
// travelled alone in is unknown: the call is refused and leaves no row and
// no event.
func TestLogMethodRefused(t *testing.T) {
	env := newMatchEnv(t, defaultCfg())
	x := cleanExchange("req-log")
	env.anchorPolicy(x.polVer)
	before := env.st.Digest()
	evs, err := env.call("li-t1", "log", x.pepRequest().Encode())
	if !errors.Is(err, contract.ErrUnknownMethod) {
		t.Fatalf("log call: err = %v, want ErrUnknownMethod", err)
	}
	if len(evs) != 0 {
		t.Fatalf("refused log call emitted %v", evs)
	}
	if _, ok := contract.Namespace(env.st, ContractName).Get(recKey(x.reqID, KindPEPRequest)); ok || env.st.Digest() != before {
		t.Fatal("refused log call left state behind")
	}
}

func TestAlertEncodeDecodeAndString(t *testing.T) {
	a := Alert{Type: AlertRequestTampered, ReqID: "r", Tenant: "t", Detail: "d", Height: 4}
	back, err := DecodeAlert(a.Encode())
	if err != nil || back != a {
		t.Fatalf("round trip: %+v %v", back, err)
	}
	if !strings.Contains(a.String(), "request-tampered") {
		t.Fatalf("String() = %q", a.String())
	}
	if _, err := DecodeAlert([]byte("{")); err == nil {
		t.Fatal("garbage alert decoded")
	}
	if len(AllAlertTypes()) != 8 {
		t.Fatalf("alert taxonomy size = %d", len(AllAlertTypes()))
	}
}

// The record layout, written out field by field: moving or widening a field
// is a format break (codecVersion) and shows up here first.
func TestLogRecordLayoutStable(t *testing.T) {
	rec := cleanExchange("r").pdpResponse()
	rec.TraceID, rec.TimestampUnixNano, rec.Payload = "tr", 0x0102030405060708, []byte{0xaa}
	want := []byte{3} // kind: pdp.response
	for _, s := range []string{"r", "tr", "infra", "t1", "agent-infra"} {
		want = append(append(want, byte(len(s))), s...)
	}
	for _, d := range []crypto.Digest{rec.ReqDigest, rec.RespDigest, rec.DecisionTag, rec.PolicyDigest} {
		want = append(want, d[:]...)
	}
	want = append(want, 2, 'v', '1')            // policy version
	want = append(want, 1, 2, 3, 4, 5, 6, 7, 8) // timestamp
	want = append(want, 1, 0xaa)                // payload
	if got := rec.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("pdp.response encodes as\n %x\nwant\n %x", got, want)
	}
}

// A request record carries its request digest and no other: the kind fixes
// which digests follow, so no zero digest travels.
func TestRequestRecordOmitsZeroDigests(t *testing.T) {
	rec := cleanExchange("req-oz").pepRequest()
	enc := rec.Encode()
	var zero crypto.Digest
	if bytes.Contains(enc, zero[:]) {
		t.Errorf("%s record carries a zero digest: %x", rec.Kind, enc)
	}
	asResponse := rec
	asResponse.Kind = KindPEPResponse
	if got := len(asResponse.Encode()) - len(enc); got != 3*crypto.DigestSize {
		t.Errorf("a response record is %d bytes longer, want its three digests (%d)", got, 3*crypto.DigestSize)
	}
	back, err := DecodeLogRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("round trip: got %+v, want %+v", back, rec)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped record does not validate: %v", err)
	}
}

// The state rows round-trip, and nothing but exactly one row decodes: every
// truncation and any trailing byte is ok=false, never a panic.
func TestStateRowCodec(t *testing.T) {
	x := cleanExchange("req-row")
	full := x.pdpResponse()
	full.EnforcedTag = crypto.Sum([]byte("enforced"))
	for _, sr := range []StoredRecord{
		{Hash: crypto.Sum(full.Encode()), ReqDigest: full.ReqDigest, RespDigest: full.RespDigest,
			DecisionTag: full.DecisionTag, EnforcedTag: full.EnforcedTag, PolicyDigest: full.PolicyDigest,
			Tenant: full.Tenant, Origin: full.Origin, PolicyVersion: full.PolicyVersion},
		{Hash: crypto.Sum([]byte("bare")), ReqDigest: x.reqDig}, // request record without a tenant
	} {
		row := appendRecordRow(nil, &sr)
		if len(row) != recordRowLen(&sr) {
			t.Fatalf("record row of %d bytes, recordRowLen %d", len(row), recordRowLen(&sr))
		}
		got, ok := decodeRecordRow(row)
		if !ok || got != sr {
			t.Fatalf("record row round trip: ok=%v got %+v, want %+v", ok, got, sr)
		}
		for n := 0; n < len(row); n++ {
			if _, ok := decodeRecordRow(row[:n]); ok {
				t.Fatalf("record row truncated to %d of %d bytes decoded", n, len(row))
			}
		}
		if _, ok := decodeRecordRow(append(row, 0)); ok {
			t.Fatal("record row with a trailing byte decoded")
		}
	}
	// Length fields that promise more than any slice could hold.
	huge := appendRecordRow(nil, &StoredRecord{})
	for i := recordRowFixed - 12; i < recordRowFixed; i++ {
		huge[i] = 0xff
	}
	if _, ok := decodeRecordRow(huge); ok {
		t.Fatal("record row with overflowing lengths decoded")
	}

	v := x.verdict(x.decision)
	sv := storedVerdict{Hash: crypto.Sum(v.Encode()), ExpectedTag: v.ExpectedTag, PolicyDigest: v.PolicyDigest}
	row := appendVerdictRow(nil, &sv)
	if got, ok := decodeVerdictRow(row); !ok || got != sv {
		t.Fatalf("verdict row round trip: ok=%v got %+v, want %+v", ok, got, sv)
	}
	for n := 0; n < len(row); n++ {
		if _, ok := decodeVerdictRow(row[:n]); ok {
			t.Fatalf("verdict row truncated to %d bytes decoded", n)
		}
	}
	if _, ok := decodeVerdictRow(append(row, 0)); ok {
		t.Fatal("verdict row with a trailing byte decoded")
	}
}

// TestQueueHooksDeleteMalformedKeys: both block hooks read their queue in
// byte order up to the first entry not yet due. On the way they delete the
// due entries and every malformed one they pass, and leave everything after
// the first future entry, malformed or not, for a later block.
func TestQueueHooksDeleteMalformedKeys(t *testing.T) {
	for _, h := range []struct {
		prefix string
		hook   contract.BlockHook
	}{
		{"deadline/", NewLogMatchContract(defaultCfg())},
		{"sched/", &PolicyContract{PAP: "pap"}},
	} {
		st := contract.Namespace(contract.NewState(), "c")
		keys := []string{
			"0000000000000005/a",  // due at 5
			"0000000000000005x/b", // malformed height, sorts between
			"0000000000000007/c",  // due at 7
			"zz",                  // no slash, sorts last
		}
		for _, k := range keys {
			st.Set(h.prefix+k, []byte("1"))
		}
		left := func() []string {
			var out []string
			for k := range st.Keys(h.prefix) {
				out = append(out, strings.TrimPrefix(k, h.prefix))
			}
			return out
		}
		h.hook.OnBlock(6, time.Time{}, st)
		if got := left(); !reflect.DeepEqual(got, keys[2:]) {
			t.Fatalf("%s after block 6: %q, want %q", h.prefix, got, keys[2:])
		}
		h.hook.OnBlock(7, time.Time{}, st)
		if got := left(); len(got) != 0 {
			t.Fatalf("%s after block 7: %q left", h.prefix, got)
		}
	}
}
