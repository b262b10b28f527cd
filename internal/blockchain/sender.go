package blockchain

import (
	"context"
	"fmt"

	"drams/internal/contract"
	"drams/internal/crypto"
)

// Sender signs and submits transactions for one component identity. Every
// DRAMS component that writes to the chain (LIs, the Analyser, the PAP)
// owns one. Each transaction expires TxLifetime blocks above the node's head
// at signing and carries a fresh salt, so concurrent Sends, a restarted
// member and an identity shared by several processes never collide, and a
// lost transaction holds up no later one.
type Sender struct {
	node *Node
	id   *crypto.Identity
}

// NewSender binds an identity to the node its transactions are submitted to.
func NewSender(node *Node, id *crypto.Identity) *Sender {
	return &Sender{node: node, id: id}
}

// Send signs and submits one contract call, returning the transaction ID.
// The member vouches for what its own Sender signs: the transaction passes
// the registry check and enters the pool without an ed25519 check of the
// signature made here a moment ago (TxVerifier.vouch). Every other member
// verifies it when it arrives.
func (s *Sender) Send(call contract.Call) (crypto.Digest, error) {
	tx, err := NewTransaction(s.id, s.node.Chain().Height(), call)
	if err != nil {
		return crypto.Digest{}, err
	}
	id := tx.ID()
	if err := s.node.submit(tx, id, true); err != nil {
		return crypto.Digest{}, fmt.Errorf("blockchain: sender %q submit: %w", s.id.Name(), err)
	}
	return id, nil
}

// SendAndWait submits a call and blocks until it has the requested number
// of confirmations, returning the execution receipt.
func (s *Sender) SendAndWait(ctx context.Context, call contract.Call, confirmations uint64) (Receipt, error) {
	txID, err := s.Send(call)
	if err != nil {
		return Receipt{}, err
	}
	if confirmations == 0 {
		confirmations = 1
	}
	return s.node.WaitForReceipt(ctx, txID, confirmations)
}
