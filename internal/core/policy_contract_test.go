package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/xacml"
)

// policyEnv drives the policy contract (plus the log-match contract, so M6
// cross-reads can be exercised) directly through the engine.
type policyEnv struct {
	t      *testing.T
	engine *contract.Engine
	st     *contract.State
	height uint64
	txs    []appliedTx // for deterministic replay
}

type appliedTx struct {
	height uint64
	caller string
	call   contract.Call
}

func newPolicyEnv(t *testing.T) *policyEnv {
	t.Helper()
	reg := contract.NewRegistry()
	reg.MustRegister(&PolicyContract{PAP: "pap"})
	reg.MustRegister(NewLogMatchContract(MatchConfig{TimeoutBlocks: 5}))
	return &policyEnv{t: t, engine: contract.NewEngine(reg), st: contract.NewState(), height: 1}
}

func (e *policyEnv) call(caller, method string, args []byte) ([]contract.Event, error) {
	e.t.Helper()
	call := contract.Call{Contract: PolicyContractName, Method: method, Args: args}
	ctx := contract.CallCtx{Height: e.height, Caller: caller, TxID: crypto.Sum(args)}
	evs, err := e.engine.Execute(ctx, e.st, call)
	if err == nil {
		e.txs = append(e.txs, appliedTx{height: e.height, caller: caller, call: call})
	}
	return evs, err
}

func (e *policyEnv) onBlock() []contract.Event {
	evs := e.engine.OnBlock(e.height, time.Unix(int64(e.height), 0), e.st)
	e.height++
	return evs
}

func updateArgs(version string, due uint64) PolicyUpdate {
	ps := xacml.StandardPolicy(version)
	blob := ps.Encode()
	return PolicyUpdate{Version: version, Policy: blob, Digest: crypto.Sum(blob), ActivateHeight: due}
}

func eventTypes(evs []contract.Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}

func activeVersion(st *contract.State) string {
	ver, _, ok := ReadActivePolicy(contract.Namespace(st, PolicyContractName))
	if !ok {
		return ""
	}
	return ver
}

func TestPolicyContractScheduleAndActivate(t *testing.T) {
	e := newPolicyEnv(t)
	pu := updateArgs("v1", 3)
	evs, err := e.call("pap", MethodPolicyUpdate, pu.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != EventPolicyStaged {
		t.Fatalf("update events = %v", eventTypes(evs))
	}

	// Heights 1 and 2: nothing fires.
	if evs := e.onBlock(); len(evs) != 0 {
		t.Fatalf("height 1 events = %v", eventTypes(evs))
	}
	if got := activeVersion(e.st); got != "" {
		t.Fatalf("active before gate = %q", got)
	}
	if evs := e.onBlock(); len(evs) != 0 {
		t.Fatalf("height 2 events = %v", eventTypes(evs))
	}

	// Height 3: the gate opens.
	evs = e.onBlock()
	if len(evs) != 1 || evs[0].Type != EventPolicyActivated {
		t.Fatalf("height 3 events = %v", eventTypes(evs))
	}
	if got := activeVersion(e.st); got != "v1" {
		t.Fatalf("active = %q, want v1", got)
	}
	hist := ReadPolicyHistory(contract.Namespace(e.st, PolicyContractName))
	if len(hist) != 1 || hist[0].Version != "v1" || hist[0].Height != 3 {
		t.Fatalf("history = %+v", hist)
	}
}

func TestPolicyContractPastHeightActivatesAtCurrentBlock(t *testing.T) {
	e := newPolicyEnv(t)
	e.height = 7
	pu := updateArgs("v1", 0) // "immediately"
	if _, err := e.call("pap", MethodPolicyUpdate, pu.Encode()); err != nil {
		t.Fatal(err)
	}
	evs := e.onBlock() // block 7's boundary
	if len(evs) != 1 || evs[0].Type != EventPolicyActivated || evs[0].Height != 7 {
		t.Fatalf("events = %v at height %d", eventTypes(evs), e.height-1)
	}
}

func TestPolicyContractIdempotentResubmit(t *testing.T) {
	e := newPolicyEnv(t)
	pu := updateArgs("v1", 1)
	if _, err := e.call("pap", MethodPolicyUpdate, pu.Encode()); err != nil {
		t.Fatal(err)
	}
	// Re-submit with the same digest: the anchor is untouched, no
	// conflict, and the requested activation is (re-)scheduled.
	evs, err := e.call("pap", MethodPolicyUpdate, pu.Encode())
	if err != nil {
		t.Fatalf("idempotent re-submit failed: %v", err)
	}
	if len(evs) != 1 || evs[0].Type != EventPolicyStaged {
		t.Fatalf("re-submit events = %v", eventTypes(evs))
	}
	pst := contract.Namespace(e.st, PolicyContractName)
	if d, _ := ReadPolicyDigest(pst, "v1"); d != pu.Digest {
		t.Fatal("re-submit changed the anchor")
	}
	e.onBlock() // v1 activates once; the duplicate schedule no-ops
	if got := activeVersion(e.st); got != "v1" {
		t.Fatalf("active = %q", got)
	}
	if hist := ReadPolicyHistory(pst); len(hist) != 1 {
		t.Fatalf("history = %+v", hist)
	}

	// Re-publishing a superseded version (identical bytes) re-activates
	// it — the operator-friendly alternative to the activate method.
	if _, err := e.call("pap", MethodPolicyUpdate, updateArgs("v2", 2).Encode()); err != nil {
		t.Fatal(err)
	}
	e.onBlock()
	if got := activeVersion(e.st); got != "v2" {
		t.Fatalf("active = %q, want v2", got)
	}
	if _, err := e.call("pap", MethodPolicyUpdate, updateArgs("v1", 3).Encode()); err != nil {
		t.Fatal(err)
	}
	evs = e.onBlock()
	if len(evs) != 1 || evs[0].Type != EventPolicyActivated {
		t.Fatalf("re-publish activation events = %v", eventTypes(evs))
	}
	if got := activeVersion(e.st); got != "v1" {
		t.Fatalf("active after re-publish = %q, want v1", got)
	}
}

func TestPolicyContractConflictingDigestRejected(t *testing.T) {
	e := newPolicyEnv(t)
	if _, err := e.call("pap", MethodPolicyUpdate, updateArgs("v1", 1).Encode()); err != nil {
		t.Fatal(err)
	}
	before := e.st.Digest()

	// Same version, different content (still self-consistent digest): the
	// original anchor stays, and the attempt is flagged on-chain with a
	// PolicyConflict event.
	other := xacml.RestrictedPolicy("v1").Encode()
	conflict := PolicyUpdate{Version: "v1", Policy: other, Digest: crypto.Sum(other), ActivateHeight: 1}
	evs, err := e.call("pap", MethodPolicyUpdate, conflict.Encode())
	if err != nil {
		t.Fatalf("conflict tx should succeed (event-only): %v", err)
	}
	if len(evs) != 1 || evs[0].Type != EventPolicyConflict {
		t.Fatalf("conflict events = %v", eventTypes(evs))
	}
	if e.st.Digest() != before {
		t.Fatal("conflicting update mutated state")
	}
	pst := contract.Namespace(e.st, PolicyContractName)
	if d, _ := ReadPolicyDigest(pst, "v1"); d != crypto.Sum(xacml.StandardPolicy("v1").Encode()) {
		t.Fatal("conflict mutated the original anchor")
	}
}

func TestPolicyContractRejectsBadPayloads(t *testing.T) {
	e := newPolicyEnv(t)
	blob := xacml.StandardPolicy("v1").Encode()

	// Declared digest does not match the content.
	bad := PolicyUpdate{Version: "v1", Policy: blob, Digest: crypto.Sum([]byte("x"))}
	if _, err := e.call("pap", MethodPolicyUpdate, bad.Encode()); err == nil ||
		!strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("digest mismatch err = %v", err)
	}
	// Unparseable policy bytes.
	junk := []byte(`{"not":"a policy"`)
	bad = PolicyUpdate{Version: "v1", Policy: junk, Digest: crypto.Sum(junk)}
	if _, err := e.call("pap", MethodPolicyUpdate, bad.Encode()); err == nil {
		t.Fatal("junk policy accepted")
	}
	// Version label disagreeing with the embedded set.
	bad = PolicyUpdate{Version: "v9", Policy: blob, Digest: crypto.Sum(blob)}
	if _, err := e.call("pap", MethodPolicyUpdate, bad.Encode()); err == nil ||
		!strings.Contains(err.Error(), "carries version") {
		t.Fatalf("version mismatch err = %v", err)
	}
	// No version label at all.
	bad = PolicyUpdate{Policy: blob, Digest: crypto.Sum(blob)}
	if _, err := e.call("pap", MethodPolicyUpdate, bad.Encode()); err == nil ||
		!strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("versionless update err = %v", err)
	}
	// Non-PAP caller.
	good := updateArgs("v1", 1)
	if _, err := e.call("li@tenant-1", MethodPolicyUpdate, good.Encode()); err == nil ||
		!strings.Contains(err.Error(), "may administer") {
		t.Fatalf("caller gate err = %v", err)
	}
}

// A member's replica is not consensus: LoadPolicyVersion re-checks the
// stored bytes against the anchored digest before anyone parses them.
func TestLoadPolicyVersionRejectsTamperedReplica(t *testing.T) {
	e := newPolicyEnv(t)
	pu := updateArgs("v1", 1)
	if _, err := e.call("pap", MethodPolicyUpdate, pu.Encode()); err != nil {
		t.Fatal(err)
	}
	pst := contract.Namespace(e.st, PolicyContractName)
	ps, digest, err := LoadPolicyVersion(pst, "v1")
	if err != nil || ps.Version != "v1" || digest != pu.Digest {
		t.Fatalf("honest replica: %v, %v, %s", ps, err, digest.Short())
	}
	if _, _, err := LoadPolicyVersion(pst, "v9"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("unknown version err = %v", err)
	}
	pst.Set(policyBlobKey("v1"), xacml.RestrictedPolicy("v1").Encode())
	if _, _, err := LoadPolicyVersion(pst, "v1"); err == nil || !strings.Contains(err.Error(), "!= anchored") {
		t.Fatalf("tampered replica err = %v", err)
	}
}

func TestPolicyContractRollback(t *testing.T) {
	e := newPolicyEnv(t)
	if _, err := e.call("pap", MethodPolicyUpdate, updateArgs("v1", 1).Encode()); err != nil {
		t.Fatal(err)
	}
	e.onBlock()
	if _, err := e.call("pap", MethodPolicyUpdate, updateArgs("v2", 2).Encode()); err != nil {
		t.Fatal(err)
	}
	e.onBlock()
	if got := activeVersion(e.st); got != "v2" {
		t.Fatalf("active = %q, want v2", got)
	}
	pst := contract.Namespace(e.st, PolicyContractName)
	if deact, ok := ReadPolicyDeactivatedAt(pst, "v1"); !ok || deact != 2 {
		t.Fatalf("v1 deactivation = %d,%v", deact, ok)
	}

	// Rollback re-activates v1 without shipping the bytes again.
	enc := mustJSON(t, PolicyActivateArgs{Version: "v1", ActivateHeight: 3})
	if _, err := e.call("pap", MethodPolicyActivate, enc); err != nil {
		t.Fatal(err)
	}
	evs := e.onBlock()
	if len(evs) != 1 || evs[0].Type != EventPolicyActivated {
		t.Fatalf("rollback events = %v", eventTypes(evs))
	}
	if got := activeVersion(e.st); got != "v1" {
		t.Fatalf("active after rollback = %q", got)
	}
	if _, ok := ReadPolicyDeactivatedAt(pst, "v1"); ok {
		t.Fatal("re-activated version still marked deactivated")
	}
	if deact, ok := ReadPolicyDeactivatedAt(pst, "v2"); !ok || deact != 3 {
		t.Fatalf("v2 deactivation = %d,%v", deact, ok)
	}
	if hist := ReadPolicyHistory(pst); len(hist) != 3 {
		t.Fatalf("history length = %d, want 3", len(hist))
	}

	// Activating an unknown version fails.
	if _, err := e.call("pap", MethodPolicyActivate, mustJSON(t, PolicyActivateArgs{Version: "v9"})); err == nil {
		t.Fatal("unknown version activated")
	}
}

// TestPolicyContractReplayDeterminism applies the same transaction/block
// sequence to a fresh engine and demands bit-identical state — the property
// that lets a restarted node rebuild the policy lifecycle from the chain.
func TestPolicyContractReplayDeterminism(t *testing.T) {
	run := func() crypto.Digest {
		e := newPolicyEnv(t)
		e.call("pap", MethodPolicyUpdate, updateArgs("v1", 0).Encode())
		e.onBlock()
		e.call("pap", MethodPolicyUpdate, updateArgs("v2", 4).Encode())
		e.onBlock()
		e.call("pap", MethodPolicyUpdate, updateArgs("v2", 4).Encode()) // retry
		e.onBlock()
		e.onBlock() // height 4: v2 activates
		e.call("pap", MethodPolicyActivate, mustJSON(t, PolicyActivateArgs{Version: "v1", ActivateHeight: 5}))
		e.onBlock()
		if got := activeVersion(e.st); got != "v1" {
			t.Fatalf("active = %q, want v1", got)
		}
		return e.st.Digest()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %s != %s", a.Short(), b.Short())
	}
}

// TestM6ConsultsPolicyContract proves the log-match M6 check reads the
// policy contract's chain-replicated anchor: a pdp.response claiming the
// active version passes, a superseded version passes only within the grace
// window, and a forged digest alerts.
func TestM6ConsultsPolicyContract(t *testing.T) {
	e := newPolicyEnv(t)
	if _, err := e.call("pap", MethodPolicyUpdate, updateArgs("v1", 0).Encode()); err != nil {
		t.Fatal(err)
	}
	e.onBlock() // v1 active at height 1
	v1 := xacml.StandardPolicy("v1")

	logPDPResp := func(reqID, version string, digest crypto.Digest) []contract.Event {
		rec := LogRecord{
			Kind: KindPDPResponse, ReqID: reqID, Tenant: "tenant-1", Agent: "agent",
			ReqDigest: crypto.Sum([]byte(reqID)), RespDigest: crypto.Sum([]byte(reqID + "resp")),
			DecisionTag:   DecisionTag(&testMAC, reqID, xacml.Permit),
			PolicyVersion: version, PolicyDigest: digest,
		}
		args := logArgs(rec)
		ctx := contract.CallCtx{Height: e.height, Caller: "li@tenant-1", TxID: crypto.Sum(args)}
		evs, err := e.engine.Execute(ctx, e.st,
			contract.Call{Contract: ContractName, Method: MethodLogBatch, Args: args})
		if err != nil {
			t.Fatalf("log: %v", err)
		}
		return evs
	}
	hasAlert := func(evs []contract.Event, at AlertType) bool {
		for _, ev := range evs {
			if ev.Type != EventAlert {
				continue
			}
			a, err := DecodeAlert(ev.Payload)
			if err == nil && a.Type == at {
				return true
			}
		}
		return false
	}

	// Active version with the anchored digest: clean.
	if evs := logPDPResp("r1", "v1", v1.Digest()); hasAlert(evs, AlertPolicyTampered) {
		t.Fatal("clean record alerted")
	}
	// Forged digest for the active version: M6 fires.
	if evs := logPDPResp("r2", "v1", crypto.Sum([]byte("forged"))); !hasAlert(evs, AlertPolicyTampered) {
		t.Fatal("forged digest not detected")
	}
	// Unanchored version: M6 fires.
	if evs := logPDPResp("r3", "v7", v1.Digest()); !hasAlert(evs, AlertPolicyTampered) {
		t.Fatal("unanchored version not detected")
	}

	// Flip to v2, then log a v1-claiming record inside the grace window
	// (Δ = 5 blocks): tolerated. Past the window: alert.
	if _, err := e.call("pap", MethodPolicyUpdate, updateArgs("v2", 0).Encode()); err != nil {
		t.Fatal(err)
	}
	e.onBlock() // v2 active, v1 deactivated at this height
	if evs := logPDPResp("r4", "v1", v1.Digest()); hasAlert(evs, AlertPolicyTampered) {
		t.Fatal("in-flight v1 record inside grace window alerted")
	}
	for i := 0; i < 6; i++ {
		e.onBlock()
	}
	if evs := logPDPResp("r5", "v1", v1.Digest()); !hasAlert(evs, AlertPolicyTampered) {
		t.Fatal("stale v1 record past grace window not detected")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
