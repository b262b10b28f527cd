// Package pap implements the off-chain half of the DRAMS Policy
// Administration Point: runtime policy administration for a whole cloud
// federation, with the private blockchain as the tamper-evident replication
// and ordering layer.
//
// The paper's architecture (§II) assumes the PAP publishes policy versions
// whose digests every member can verify (the trust anchor of check M6).
// This package makes that dynamic:
//
//   - Admin signs PolicyUpdate transactions — the full serialized
//     xacml.PolicySet, its digest and a height-gated activation — executed
//     by the on-chain core.PolicyContract (which lives in package core so
//     the log-match contract can cross-read its state for M6);
//   - Watcher runs on every federation member: on every head change of its
//     node's chain replica it reads the active version and, when that
//     changed, digest-verifies the stored bytes and atomically hot-reloads
//     the local PDP — every member flips at the same block height, and a
//     reorg that moves the active version back moves the PDP back too.
//
// Failure modes are first-class: a version whose bytes do not verify
// against the anchored digest, or do not parse, is never activated locally
// and surfaces as an EventRejected notification; a conflicting re-anchor of an
// existing version is flagged on-chain (PolicyConflict) and reported by the
// Admin as an error.
package pap

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/xacml"
)

// ErrPolicyConflict is returned by Admin.UpdatePolicy when the version is
// already anchored on-chain with a different digest.
var ErrPolicyConflict = errors.New("pap: policy version already anchored with a different digest")

// UpdateOptions shape one policy update / rollback.
type UpdateOptions struct {
	// ActivateDelta schedules activation this many blocks after the
	// current chain height (0 = at the block that includes the
	// transaction). Every member flips at the scheduled height whatever the
	// delta; a larger one lets the update's block gather confirmations
	// first, so a short reorg drops an update before it is in force rather
	// than after.
	ActivateDelta uint64
}

// Proposal reports a submitted policy update.
type Proposal struct {
	Version string
	Digest  crypto.Digest
	TxID    crypto.Digest
	// ActivateHeight is the height the fleet will flip at.
	ActivateHeight uint64
}

// Admin publishes policy updates on behalf of the federation's PAP
// identity. Safe for concurrent use, and from several members at once:
// updates are independent transactions, ordered by the blocks that carry
// them.
type Admin struct {
	node   *blockchain.Node
	sender *blockchain.Sender
}

// NewAdmin binds the PAP identity to a chain node. Any member's node works:
// the update is a normal transaction and reaches the block producers by
// gossip, so an edge process can administer policies for the whole fleet.
func NewAdmin(node *blockchain.Node, pap *crypto.Identity) *Admin {
	return &Admin{node: node, sender: blockchain.NewSender(node, pap)}
}

// resolveHeight turns the options into the absolute activation height.
func (a *Admin) resolveHeight(opts UpdateOptions) uint64 {
	return a.node.Chain().Height() + opts.ActivateDelta
}

// UpdatePolicy signs and submits ps as a new on-chain policy version,
// waiting until the transaction is mined (and confirmed per opts). The
// returned Proposal carries the activation height every member will flip
// at; use a Watcher (or Deployment.Admin's wrapper) to observe the local
// flip itself.
func (a *Admin) UpdatePolicy(ctx context.Context, ps *xacml.PolicySet, opts UpdateOptions) (Proposal, error) {
	if ps == nil || ps.Version == "" {
		return Proposal{}, errors.New("pap: policy set with a version is required")
	}
	blob := ps.Encode()
	pu := core.PolicyUpdate{
		Version:        ps.Version,
		Policy:         blob,
		Digest:         crypto.Sum(blob),
		ActivateHeight: a.resolveHeight(opts),
	}
	rec, err := a.submit(ctx, core.MethodPolicyUpdate, pu.Encode())
	if err != nil {
		return Proposal{}, err
	}
	// A conflicting re-anchor leaves the version's first digest in state.
	if digest, ok := a.PolicyDigest(ps.Version); ok && digest != pu.Digest {
		return Proposal{}, fmt.Errorf("%w: version %q", ErrPolicyConflict, ps.Version)
	}
	return Proposal{Version: ps.Version, Digest: pu.Digest, TxID: rec.TxID, ActivateHeight: pu.ActivateHeight}, nil
}

// Rollback re-activates an already-anchored version (height-gated like an
// update; the policy bytes do not travel again).
func (a *Admin) Rollback(ctx context.Context, version string, opts UpdateOptions) (Proposal, error) {
	if version == "" {
		return Proposal{}, errors.New("pap: rollback needs a version")
	}
	args := core.PolicyActivateArgs{Version: version, ActivateHeight: a.resolveHeight(opts)}
	enc, err := json.Marshal(args)
	if err != nil {
		return Proposal{}, err
	}
	rec, err := a.submit(ctx, core.MethodPolicyActivate, enc)
	if err != nil {
		return Proposal{}, err
	}
	digest, _ := a.PolicyDigest(version)
	return Proposal{Version: version, Digest: digest, TxID: rec.TxID, ActivateHeight: args.ActivateHeight}, nil
}

// updateConfirmations is how deep an update or rollback waits for its
// transaction.
const updateConfirmations = 1

func (a *Admin) submit(ctx context.Context, method string, args []byte) (blockchain.Receipt, error) {
	rec, err := a.sender.SendAndWait(ctx, contract.Call{
		Contract: core.PolicyContractName, Method: method, Args: args,
	}, updateConfirmations)
	if err != nil {
		return blockchain.Receipt{}, fmt.Errorf("pap: submit %s: %w", method, err)
	}
	if !rec.OK {
		return blockchain.Receipt{}, fmt.Errorf("pap: %s rejected on-chain: %s", method, rec.Err)
	}
	return rec, nil
}

// ActivePolicy reads the chain's current active version and digest.
func (a *Admin) ActivePolicy() (version string, digest crypto.Digest, ok bool) {
	a.node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
		version, digest, ok = core.ReadActivePolicy(st)
	})
	return
}

// PolicyDigest reads the anchored digest of a version.
func (a *Admin) PolicyDigest(version string) (digest crypto.Digest, ok bool) {
	a.node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
		digest, ok = core.ReadPolicyDigest(st, version)
	})
	return
}

// PolicySet fetches and parses the stored policy bytes of a version.
func (a *Admin) PolicySet(version string) (*xacml.PolicySet, error) {
	var blob []byte
	a.node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
		blob, _ = core.ReadPolicyBlob(st, version)
	})
	if blob == nil {
		return nil, fmt.Errorf("pap: version %q is not anchored", version)
	}
	return xacml.DecodePolicySet(blob)
}

// History returns the on-chain activation history, oldest first.
func (a *Admin) History() []core.PolicyActivation {
	var out []core.PolicyActivation
	a.node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
		out = core.ReadPolicyHistory(st)
	})
	return out
}
