package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"iter"
	"time"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/xacml"
)

// PolicyContractName is the on-chain address of the DRAMS policy lifecycle
// contract. It lives in package core (not pap) because the log-match
// contract's M6 check reads its state cross-contract, and the off-chain PAP
// components in internal/pap import core for the monitor wiring.
const PolicyContractName = "drams.policy"

// PolicyContract event types.
const (
	// EventPolicyStaged: a new version (or a re-activation of an existing
	// one) was accepted and scheduled. Watchers act on chain state, not on
	// this event.
	EventPolicyStaged = "PolicyStaged"
	// EventPolicyActivated: the scheduled height was reached and the
	// version is now the federation's active policy.
	EventPolicyActivated = "PolicyActivated"
	// EventPolicyConflict: a re-submission of an existing version carried a
	// different digest — visible equivocation.
	EventPolicyConflict = "PolicyConflict"
)

// PolicyContract method names.
const (
	// MethodPolicyUpdate proposes a new policy version: full serialized
	// PolicySet + digest + activation height.
	MethodPolicyUpdate = "update"
	// MethodPolicyActivate re-schedules an already-stored version
	// (rollback / re-activation); no policy bytes travel again.
	MethodPolicyActivate = "activate"
)

// PolicyUpdate is the argument payload of PolicyContract.update: the policy
// itself (canonical JSON of the xacml.PolicySet), its version and digest,
// and the chain height at which every member must activate it.
type PolicyUpdate struct {
	Version string `json:"version"`
	// Policy is the full serialized xacml.PolicySet.
	Policy []byte `json:"policy"`
	// Digest is the declared canonical digest of Policy; the contract
	// recomputes and rejects mismatches, so the anchored digest is always
	// the digest of the stored bytes.
	Digest crypto.Digest `json:"digest"`
	// ActivateHeight is the absolute chain height at which the version
	// becomes active. Heights at or below the executing block activate at
	// the executing block's boundary — still the same height everywhere.
	ActivateHeight uint64 `json:"activateHeight"`
}

// Encode serialises the update.
func (pu PolicyUpdate) Encode() []byte {
	b, err := json.Marshal(pu)
	if err != nil {
		panic(fmt.Sprintf("core: encode policy update: %v", err))
	}
	return b
}

// PolicyActivateArgs are the arguments of PolicyContract.activate.
type PolicyActivateArgs struct {
	Version        string `json:"version"`
	ActivateHeight uint64 `json:"activateHeight"`
}

// policyMeta is the meta/<version> row of a proposed version:
//
//	32B digest | u64 height | by
//
// height being the block the proposal executed at and by its proposer (the
// rest of the row). M6 reads the digest of one on every pdp.response, so it
// is sliced, not parsed.
func policyMeta(digest crypto.Digest, height uint64, by string) []byte {
	row := make([]byte, 0, crypto.DigestSize+8+len(by))
	row = append(row, digest[:]...)
	row = binary.BigEndian.AppendUint64(row, height)
	return append(row, by...)
}

// metaDigest reads the anchored digest of a meta/ row.
func metaDigest(row []byte) (d crypto.Digest, ok bool) {
	if len(row) < crypto.DigestSize+8 {
		return d, false
	}
	copy(d[:], row)
	return d, true
}

// PolicyActivation is one entry of the on-chain activation history and the
// payload of EventPolicyActivated.
type PolicyActivation struct {
	Version string        `json:"version"`
	Digest  crypto.Digest `json:"digest"`
	// Height is the block height the activation fired at.
	Height uint64 `json:"height"`
}

// PolicyContract is the on-chain half of the Policy Administration Point:
// policy versions are first-class chain-replicated objects (full serialized
// set + digest), and activation is height-gated so every federation member
// flips at the same block height. It is deterministic: proposals validate
// structurally (digest recomputation, XACML parse) over transaction bytes
// only, and scheduled activations fire from the block hook.
type PolicyContract struct {
	// PAP is the only identity allowed to propose or re-activate policies
	// ("" disables the gate — tests only). Consensus configuration: every
	// node must deploy the same value.
	PAP string
}

var (
	_ contract.Contract  = (*PolicyContract)(nil)
	_ contract.BlockHook = (*PolicyContract)(nil)
)

// Name implements contract.Contract.
func (pc *PolicyContract) Name() string { return PolicyContractName }

// State keys. Scheduled activations sort by due height (zero-padded hex),
// the same trick the log-match deadline index uses.
func policyBlobKey(version string) string { return "blob/" + version }
func policyMetaKey(version string) string { return "meta/" + version }
func policySchedKey(due uint64, version string) string {
	return fmt.Sprintf("sched/%016x/%s", due, version)
}
func policyHistKey(seq uint64) string { return fmt.Sprintf("hist/%016x", seq) }

// policyDeactKey records the height at which a version stopped being
// active, giving the M6 check a bounded grace window for in-flight
// decisions around a flip.
func policyDeactKey(version string) string { return "deact/" + version }

const (
	policyActiveVerKey = "active"
	policyHistSeqKey   = "histseq"
)

// Execute implements contract.Contract.
func (pc *PolicyContract) Execute(ctx contract.CallCtx, st contract.StateDB, call contract.Call) ([]contract.Event, error) {
	if pc.PAP != "" && ctx.Caller != pc.PAP {
		return nil, fmt.Errorf("core: policy %s from %q, only %q may administer policies",
			call.Method, ctx.Caller, pc.PAP)
	}
	switch call.Method {
	case MethodPolicyUpdate:
		return pc.execUpdate(ctx, st, call.Args)
	case MethodPolicyActivate:
		return pc.execActivate(ctx, st, call.Args)
	default:
		return nil, fmt.Errorf("%w: %q", contract.ErrUnknownMethod, call.Method)
	}
}

func (pc *PolicyContract) execUpdate(ctx contract.CallCtx, st contract.StateDB, args []byte) ([]contract.Event, error) {
	var pu PolicyUpdate
	if err := json.Unmarshal(args, &pu); err != nil {
		return nil, fmt.Errorf("%w: %v", contract.ErrBadArgs, err)
	}
	if pu.Version == "" || len(pu.Policy) == 0 {
		return nil, fmt.Errorf("%w: incomplete policy update", contract.ErrBadArgs)
	}
	actual := crypto.Sum(pu.Policy)
	if actual != pu.Digest {
		return nil, fmt.Errorf("core: policy %q digest mismatch: declared %s, content %s",
			pu.Version, pu.Digest.Short(), actual.Short())
	}
	ps, err := xacml.DecodePolicySet(pu.Policy)
	if err != nil {
		return nil, fmt.Errorf("%w: policy does not parse: %v", contract.ErrBadArgs, err)
	}
	if ps.Version != pu.Version {
		return nil, fmt.Errorf("%w: policy set carries version %q, update says %q",
			contract.ErrBadArgs, ps.Version, pu.Version)
	}

	if raw, ok := st.Get(policyMetaKey(pu.Version)); ok {
		prev, _ := metaDigest(raw)
		if prev == pu.Digest {
			// Idempotent re-submit (client retry, or re-publishing a
			// superseded version instead of using activate): the anchor is
			// untouched but the requested activation still schedules —
			// OnBlock no-ops if the version is already active, so a pure
			// retry converges while a re-publish genuinely re-activates.
			return pc.schedule(ctx, st, pu.Version, pu.Digest, pu.ActivateHeight)
		}
		// Equivocation: keep the original anchor untouched and make the
		// attempt visible on-chain (the engine drops events of failed
		// transactions, so — like the log-match equivocation alert — the
		// conflict is flagged by a successful tx that changes no state;
		// the Admin turns the event into a client-side error).
		payload, _ := json.Marshal(map[string]any{
			"version": pu.Version, "by": ctx.Caller,
			"anchored": prev.String(), "attempted": pu.Digest.String(),
		})
		return []contract.Event{{Type: EventPolicyConflict, Payload: payload}}, nil
	}

	st.Set(policyBlobKey(pu.Version), pu.Policy)
	st.Set(policyMetaKey(pu.Version), policyMeta(pu.Digest, ctx.Height, ctx.Caller))
	return pc.schedule(ctx, st, pu.Version, pu.Digest, pu.ActivateHeight)
}

func (pc *PolicyContract) execActivate(ctx contract.CallCtx, st contract.StateDB, args []byte) ([]contract.Event, error) {
	var pa PolicyActivateArgs
	if err := json.Unmarshal(args, &pa); err != nil {
		return nil, fmt.Errorf("%w: %v", contract.ErrBadArgs, err)
	}
	digest, ok := ReadPolicyDigest(st, pa.Version)
	if !ok {
		return nil, fmt.Errorf("core: activate unknown policy version %q", pa.Version)
	}
	return pc.schedule(ctx, st, pa.Version, digest, pa.ActivateHeight)
}

// schedule stages an activation: due heights at or below the executing
// block fire at this block's boundary (OnBlock runs after the block's
// transactions), later heights wait in the sorted schedule index.
func (pc *PolicyContract) schedule(ctx contract.CallCtx, st contract.StateDB, version string, digest crypto.Digest, due uint64) ([]contract.Event, error) {
	if due < ctx.Height {
		due = ctx.Height
	}
	st.Set(policySchedKey(due, version), []byte("1"))
	payload, _ := json.Marshal(PolicyActivation{Version: version, Digest: digest, Height: due})
	return []contract.Event{{Type: EventPolicyStaged, Payload: payload}}, nil
}

// OnBlock implements contract.BlockHook: it fires every scheduled
// activation whose height has been reached, flipping the active pointer and
// appending to the on-chain activation history.
func (pc *PolicyContract) OnBlock(height uint64, blockTime time.Time, st contract.StateDB) []contract.Event {
	var events []contract.Event
	for {
		version, valid, ok := popDue(st, "sched/", height)
		if !ok {
			break
		}
		if !valid {
			continue
		}

		digest, ok := ReadPolicyDigest(st, version)
		if !ok {
			continue
		}
		if prev, ok := st.Get(policyActiveVerKey); ok {
			if string(prev) == version {
				continue // already active: re-activation is a no-op
			}
			st.Set(policyDeactKey(string(prev)), []byte(fmt.Sprintf("%d", height)))
		}
		st.Set(policyActiveVerKey, []byte(version))
		st.Delete(policyDeactKey(version))

		var seq uint64
		if b, ok := st.Get(policyHistSeqKey); ok {
			fmt.Sscanf(string(b), "%d", &seq)
		}
		seq++
		st.Set(policyHistSeqKey, []byte(fmt.Sprintf("%d", seq)))
		act := PolicyActivation{Version: version, Digest: digest, Height: height}
		enc, _ := json.Marshal(act)
		st.Set(policyHistKey(seq), enc)
		events = append(events, contract.Event{Type: EventPolicyActivated, Payload: enc})
	}
	return events
}

// ---------------------------------------------------------------------------
// State readers. They operate on the policy contract's space
// (Chain.ReadState(PolicyContractName, ...)) for off-chain components, with
// Cross* variants over a contract.CrossReader for consensus code (M6).

// ReadActivePolicy returns the active version and its anchored digest.
func ReadActivePolicy(st contract.StateDB) (string, crypto.Digest, bool) {
	ver, ok := st.Get(policyActiveVerKey)
	if !ok {
		return "", crypto.Digest{}, false
	}
	d, ok := ReadPolicyDigest(st, string(ver))
	if !ok {
		return "", crypto.Digest{}, false
	}
	return string(ver), d, true
}

// ReadPolicyDigest returns the anchored digest of a stored version.
func ReadPolicyDigest(st contract.StateDB, version string) (crypto.Digest, bool) {
	raw, ok := st.Get(policyMetaKey(version))
	if !ok {
		return crypto.Digest{}, false
	}
	return metaDigest(raw)
}

// ReadPolicyBlob returns the stored serialized policy set of a version.
func ReadPolicyBlob(st contract.StateDB, version string) ([]byte, bool) {
	return st.Get(policyBlobKey(version))
}

// LoadPolicyVersion reads a stored version, checks its bytes against the
// anchored digest and parses it. The contract checked the bytes when it
// accepted them, but a member's local replica is not consensus: recomputing
// the digest keeps a tampered replica from reaching the PDP or the analyser.
func LoadPolicyVersion(st contract.StateDB, version string) (*xacml.PolicySet, crypto.Digest, error) {
	blob, haveBlob := ReadPolicyBlob(st, version)
	anchored, haveRec := ReadPolicyDigest(st, version)
	if !haveBlob || !haveRec {
		return nil, crypto.Digest{}, fmt.Errorf("version %q not found in chain state", version)
	}
	if got := crypto.Sum(blob); got != anchored {
		return nil, crypto.Digest{}, fmt.Errorf("stored bytes digest %s != anchored %s", got.Short(), anchored.Short())
	}
	ps, err := xacml.DecodePolicySet(blob)
	if err != nil {
		return nil, crypto.Digest{}, fmt.Errorf("stored policy does not parse: %v", err)
	}
	if ps.Version != version {
		return nil, crypto.Digest{}, fmt.Errorf("stored policy carries version %q", ps.Version)
	}
	return ps, anchored, nil
}

// ReadPolicyHistory returns the activation history, oldest first.
func ReadPolicyHistory(st contract.StateDB) []PolicyActivation {
	var out []PolicyActivation
	for k := range st.Keys("hist/") {
		b, _ := st.Get(k)
		var act PolicyActivation
		if err := json.Unmarshal(b, &act); err != nil {
			continue
		}
		out = append(out, act)
	}
	return out
}

// ReadPolicyDeactivatedAt returns the height at which a previously active
// version was superseded (absent for the active version and for versions
// never activated).
func ReadPolicyDeactivatedAt(st contract.StateDB, version string) (uint64, bool) {
	b, ok := st.Get(policyDeactKey(version))
	if !ok {
		return 0, false
	}
	var h uint64
	if _, err := fmt.Sscanf(string(b), "%d", &h); err != nil {
		return 0, false
	}
	return h, true
}

// crossState adapts one contract's space of a CrossReader to the
// read-only part of contract.StateDB so the Read* helpers above work
// unchanged inside another contract's execution.
type crossState struct {
	cross contract.CrossReader
	name  string
}

func (c crossState) Get(key string) ([]byte, bool) { return c.cross.Read(c.name, key) }
func (c crossState) Set(string, []byte)            { panic("core: cross-contract state is read-only") }
func (c crossState) Delete(string)                 { panic("core: cross-contract state is read-only") }
func (c crossState) Keys(prefix string) iter.Seq[string] {
	return c.cross.ReadKeys(c.name, prefix)
}
