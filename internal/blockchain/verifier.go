package blockchain

import (
	"container/list"
	"fmt"
	"sync"

	"drams/internal/crypto"
	"drams/internal/metrics"
)

// VerifierConfig tunes a TxVerifier.
type VerifierConfig struct {
	// Workers sizes the worker pool batches are fanned out across
	// (default GOMAXPROCS, via crypto.VerifyBatch).
	Workers int
	// CacheSize bounds the verified-transaction LRU (default 8192;
	// negative disables caching so every call re-verifies).
	CacheSize int
}

// DefaultVerifyCacheSize is the verified-transaction LRU bound used when
// VerifierConfig.CacheSize is zero.
const DefaultVerifyCacheSize = 8192

// VerifierStats snapshots a TxVerifier's counters.
type VerifierStats struct {
	// Verified counts ed25519 verifications actually performed.
	Verified int64
	// CacheHits counts verifications skipped because the transaction was
	// already verified under the current registry generation.
	CacheHits int64
	// CacheMisses counts cache lookups that fell through to verification.
	CacheMisses int64
	// Batches counts VerifyBatch calls.
	Batches int64
	// Failures counts transactions that failed verification.
	Failures int64
}

// TxVerifier verifies transaction signatures against an IdentityRegistry.
// It fans batches out across a worker pool (block validation, batched
// mempool admission) and remembers recently verified transaction IDs so
// gossip duplicates and block validation skip re-verification: a
// transaction admitted to the mempool is not re-verified when its block
// arrives. Cached entries are tagged with the registry generation, so a
// membership change invalidates them. Safe for concurrent use.
type TxVerifier struct {
	ids     *IdentityRegistry
	workers int
	cache   *verifiedSet // nil when disabled

	verified metrics.Counter
	hits     metrics.Counter
	misses   metrics.Counter
	batches  metrics.Counter
	failures metrics.Counter
}

// NewTxVerifier builds a verifier over the registry.
func NewTxVerifier(ids *IdentityRegistry, cfg VerifierConfig) *TxVerifier {
	v := &TxVerifier{ids: ids, workers: cfg.Workers}
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = DefaultVerifyCacheSize
		}
		v.cache = newVerifiedSet(size)
	}
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

// VerifyTx verifies one transaction, consulting and feeding the
// verified-tx cache. The transaction ID covers payload, public key and
// signature, so a cache hit proves this exact signed transaction was
// already verified.
func (v *TxVerifier) VerifyTx(tx *Transaction) error {
	gen := v.ids.Generation()
	id := tx.ID()
	if v.cache != nil {
		if v.cache.has(id, gen) {
			v.hits.Inc()
			return nil
		}
		v.misses.Inc()
	}
	check, err := v.ids.sigCheck(tx)
	if err != nil {
		v.failures.Inc()
		return err
	}
	v.verified.Inc()
	if !check.Verify() {
		v.failures.Inc()
		return fmt.Errorf("%w: from %q", ErrBadSignature, tx.From)
	}
	if v.cache != nil {
		v.cache.add(id, gen)
	}
	return nil
}

// VerifyBatch verifies a batch of transactions and returns one error per
// transaction, index-aligned (nil = valid). Cached transactions are skipped;
// the rest are fanned out across the worker pool in a single
// crypto.VerifyBatch call.
func (v *TxVerifier) VerifyBatch(txs []Transaction) []error {
	return v.verifyBatch(txs, txIDs(txs))
}

// verifyBatch is VerifyBatch for a caller that already derived the
// transaction IDs (index-aligned).
func (v *TxVerifier) verifyBatch(txs []Transaction, ids []crypto.Digest) []error {
	errs := make([]error, len(txs))
	v.batches.Inc()
	gen := v.ids.Generation()

	// Cache pass + cheap registry checks; collect the expensive ed25519
	// verifications that remain.
	pending := make([]int, 0, len(txs))
	checks := make([]crypto.SigCheck, 0, len(txs))
	for i := range txs {
		if v.cache != nil && v.cache.has(ids[i], gen) {
			v.hits.Inc()
			continue
		}
		if v.cache != nil {
			v.misses.Inc()
		}
		check, err := v.ids.sigCheck(&txs[i])
		if err != nil {
			v.failures.Inc()
			errs[i] = err
			continue
		}
		pending = append(pending, i)
		checks = append(checks, check)
	}
	if len(checks) == 0 {
		return errs
	}
	v.verified.Add(int64(len(checks)))
	ok := crypto.VerifyBatch(v.workers, checks)
	for j, i := range pending {
		if !ok[j] {
			v.failures.Inc()
			errs[i] = fmt.Errorf("%w: from %q", ErrBadSignature, txs[i].From)
			continue
		}
		if v.cache != nil {
			v.cache.add(ids[i], gen)
		}
	}
	return errs
}

// VerifyAll verifies a batch and returns the first failure annotated with
// its transaction index (block-validation style), or nil if all are valid.
func (v *TxVerifier) VerifyAll(txs []Transaction) error {
	return firstTxErr(v.VerifyBatch(txs))
}

// firstTxErr returns the first failure of an index-aligned verification
// result, annotated with its transaction index.
func firstTxErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
	}
	return nil
}

// verifiedSetShards is the stripe count of the verified-tx LRU; digests are
// uniform, so the first key byte picks the shard.
const verifiedSetShards = 16

// verifiedSet is a lock-striped LRU set of (transaction ID, registry
// generation) pairs.
type verifiedSet struct {
	shards   [verifiedSetShards]verifiedShard
	perShard int
}

type verifiedShard struct {
	mu    sync.Mutex
	order *list.List                     // front = most recent; values are crypto.Digest
	items map[crypto.Digest]*verifiedEnt // by tx ID
}

type verifiedEnt struct {
	gen  uint64
	elem *list.Element
}

func newVerifiedSet(size int) *verifiedSet {
	per := size / verifiedSetShards
	if per < 1 {
		per = 1
	}
	s := &verifiedSet{perShard: per}
	for i := range s.shards {
		s.shards[i].order = list.New()
		s.shards[i].items = make(map[crypto.Digest]*verifiedEnt, per)
	}
	return s
}

func (s *verifiedSet) shard(id crypto.Digest) *verifiedShard {
	return &s.shards[id[0]%verifiedSetShards]
}

// has reports whether id was verified under the given registry generation,
// refreshing its recency on a hit. A stale-generation entry is evicted.
func (s *verifiedSet) has(id crypto.Digest, gen uint64) bool {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent, ok := sh.items[id]
	if !ok {
		return false
	}
	if ent.gen != gen {
		sh.order.Remove(ent.elem)
		delete(sh.items, id)
		return false
	}
	sh.order.MoveToFront(ent.elem)
	return true
}

// add records a successful verification, evicting the least recently used
// entry when the shard is full.
func (s *verifiedSet) add(id crypto.Digest, gen uint64) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ent, ok := sh.items[id]; ok {
		ent.gen = gen
		sh.order.MoveToFront(ent.elem)
		return
	}
	for sh.order.Len() >= s.perShard {
		oldest := sh.order.Back()
		sh.order.Remove(oldest)
		delete(sh.items, oldest.Value.(crypto.Digest))
	}
	sh.items[id] = &verifiedEnt{gen: gen, elem: sh.order.PushFront(id)}
}

// len returns the number of cached verifications (tests only).
func (s *verifiedSet) len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += len(s.shards[i].items)
		s.shards[i].mu.Unlock()
	}
	return n
}
