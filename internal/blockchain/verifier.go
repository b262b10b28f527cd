package blockchain

import (
	"fmt"
	"sync"

	"drams/internal/crypto"
	"drams/internal/metrics"
)

// VerifierConfig has no fields: the verifier has nothing to tune. It stays
// in NewTxVerifier's signature for the callers that pass one.
type VerifierConfig struct{}

// verifyMemoSize is the verifier memo's generation size: it remembers the
// last 4096 to 8192 transactions whose signatures checked out.
const verifyMemoSize = 4096

// VerifierStats snapshots a TxVerifier's counters.
type VerifierStats struct {
	// Verified counts ed25519 verifications actually performed. A member's
	// own transactions, vouched for by its Senders, are not verified and not
	// counted: on a settled chain it is the number of transactions the
	// member did not sign.
	Verified int64
	// CacheHits counts verifications skipped because the transaction was
	// already verified, or was being verified by another caller whose
	// check passed.
	CacheHits int64
	// CacheMisses counts memo lookups that fell through to verification.
	CacheMisses int64
	// Batches counts VerifyBatch calls and block validations.
	Batches int64
	// Failures counts transactions that failed verification, and a
	// Sender's transactions the registry refused.
	Failures int64
}

// TxVerifier verifies transaction signatures against an IdentityRegistry,
// one after another, and remembers the IDs of recently verified
// transactions, so gossip duplicates and block validation skip
// re-verification: a transaction admitted to the mempool is not re-verified
// when its block arrives, and a member's own transactions, vouched for at
// submission, are not verified at all. The membership is fixed at genesis,
// so a remembered verification stays valid; failures are never remembered.
// A transaction that reaches a member on two links at once (from the member
// that admitted it and through another's relay, or in a block while the
// gossiped copy is checked) is verified once: the second caller waits for
// the first one's result. Safe for concurrent use.
type TxVerifier struct {
	ids  *IdentityRegistry
	memo *seenCache // IDs of verified transactions, rotated by count

	// inflight holds the transactions being verified, by ID.
	inflight struct {
		sync.Mutex
		m map[crypto.Digest]*verifying
	}

	verified metrics.Counter
	hits     metrics.Counter
	misses   metrics.Counter
	batches  metrics.Counter
	failures metrics.Counter
}

// verifying is one verification in progress: err is its outcome, set
// before done is released.
type verifying struct {
	done sync.WaitGroup
	err  error
}

// NewTxVerifier builds a verifier over the registry.
func NewTxVerifier(ids *IdentityRegistry, _ VerifierConfig) *TxVerifier {
	v := &TxVerifier{ids: ids, memo: newSeenCache(verifyMemoSize, nil)}
	v.inflight.m = make(map[crypto.Digest]*verifying)
	return v
}

// Stats snapshots the verifier counters.
func (v *TxVerifier) Stats() VerifierStats {
	return VerifierStats{
		Verified:    v.verified.Value(),
		CacheHits:   v.hits.Value(),
		CacheMisses: v.misses.Value(),
		Batches:     v.batches.Value(),
		Failures:    v.failures.Value(),
	}
}

// VerifyTx verifies one transaction, consulting and feeding the memo.
func (v *TxVerifier) VerifyTx(tx *Transaction) error {
	return v.verify(tx, tx.ID())
}

// verify checks tx, whose ID the caller derived. The ID covers payload,
// public key and signature, so a memo hit proves this exact signed
// transaction was already verified, and a caller that finds the ID being
// verified takes that verification's outcome as its own.
func (v *TxVerifier) verify(tx *Transaction, id crypto.Digest) error {
	if v.memo.has(id) {
		v.hits.Inc()
		return nil
	}
	v.inflight.Lock()
	if p, ok := v.inflight.m[id]; ok {
		v.inflight.Unlock()
		p.done.Wait()
		if p.err == nil {
			v.hits.Inc()
		}
		return p.err
	}
	// The verifier that just finished remembered the ID before it left the
	// in-flight set.
	if v.memo.has(id) {
		v.inflight.Unlock()
		v.hits.Inc()
		return nil
	}
	p := &verifying{}
	p.done.Add(1)
	v.inflight.m[id] = p
	v.inflight.Unlock()

	v.misses.Inc()
	reg, err := v.ids.signer(tx)
	if err == nil {
		v.verified.Inc()
		err = checkSignature(reg, tx)
	}
	if err != nil {
		v.failures.Inc()
	} else {
		v.memo.add(id)
	}
	p.err = err
	v.inflight.Lock()
	delete(v.inflight.m, id)
	v.inflight.Unlock()
	p.done.Done()
	return err
}

// vouch remembers tx, whose ID the caller derived, as verified on the
// registry check alone: the sender is a member and tx carries its
// registered key. It is for a transaction a Sender signed in this process a
// moment ago. An Identity's public key is derived from its private key (see
// crypto.Identity), and ed25519 signing is deterministic, so its signature
// verifies under that key; a process that made the signature learns nothing
// by checking it, and a compromised one could sign anything anyway.
func (v *TxVerifier) vouch(tx *Transaction, id crypto.Digest) error {
	if _, err := v.ids.signer(tx); err != nil {
		v.failures.Inc()
		return err
	}
	v.memo.add(id)
	return nil
}

// VerifyBatch verifies a batch of transactions and returns one error per
// transaction, index-aligned (nil = valid).
func (v *TxVerifier) VerifyBatch(txs []Transaction) []error {
	v.batches.Inc()
	errs := make([]error, len(txs))
	for i := range txs {
		errs[i] = v.VerifyTx(&txs[i])
	}
	return errs
}

// verifyAll verifies a block's transactions, whose IDs the caller derived
// (index-aligned), and returns the first failure annotated with its
// transaction index, or nil if all are valid.
func (v *TxVerifier) verifyAll(txs []Transaction, ids []crypto.Digest) error {
	v.batches.Inc()
	for i := range txs {
		if err := v.verify(&txs[i], ids[i]); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
	}
	return nil
}
