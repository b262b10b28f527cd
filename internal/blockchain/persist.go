package blockchain

import (
	"encoding/binary"
	"errors"
	"fmt"

	"drams/internal/crypto"
	"drams/internal/store"
)

// Persistence lets a node survive restarts: the best chain lives in a
// WAL-backed KV store and is replayed (with full validation) on reload.
//
// AttachStore is the one write path: every block that joins the best chain
// is appended to the store as part of accepting it, and a reorganisation
// rewrites exactly the heights that changed. The best chain never gets
// shorter, so no stored height is ever left above the head. The store's own
// WAL + auto-compaction bound the on-disk footprint, so a long-running node
// never needs a "save" step — killing the process at any instant loses at
// most the in-flight record, which replay tolerates.
//
// Side branches are not persisted — after a restart the node re-learns any
// competing branch from its peers, which is safe because fork choice is
// deterministic.

const (
	persistBlockPrefix = "block/"
	persistHeadKey     = "head"
)

func persistBlockKey(height uint64) string {
	return fmt.Sprintf("%s%016x", persistBlockPrefix, height)
}

func persistHeadRecord(height uint64) []byte {
	var head [8]byte
	binary.BigEndian.PutUint64(head[:], height)
	return head[:]
}

// AttachStore installs kv as the chain's durable backing store: from now on
// every best-chain change is persisted incrementally (appends on the fast
// path, height-exact rewrites on reorganisations). Call it after
// LoadFromStore on a freshly constructed chain; blocks already applied are
// assumed to be in the store.
func (c *Chain) AttachStore(kv *store.KV) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeKV = kv
}

// PersistStats reports the incremental-persistence counters.
type PersistStats struct {
	// BlocksPersisted counts best-chain blocks written to the store.
	BlocksPersisted int64
	// PersistErrors counts failed store writes. A failure never blocks
	// consensus: the in-memory chain stays authoritative and the next
	// best-chain change retries the head record.
	PersistErrors int64
}

// PersistStats snapshots the persistence counters (zero without a store).
func (c *Chain) PersistStats() PersistStats {
	return PersistStats{
		BlocksPersisted: c.persisted.Value(),
		PersistErrors:   c.persistErrs.Value(),
	}
}

// persistAppendLocked writes one block extending the best chain plus the
// updated head record. Caller holds c.mu.
func (c *Chain) persistAppendLocked(b *Block) {
	if c.storeKV == nil {
		return
	}
	puts := map[string][]byte{
		persistBlockKey(b.Header.Height): b.Encode(),
		persistHeadKey:                   persistHeadRecord(b.Header.Height),
	}
	if err := c.storeKV.Batch(puts); err != nil {
		c.persistErrs.Inc()
		return
	}
	c.persisted.Inc()
}

// persistReorgLocked rewrites the store after a best-chain switch: every
// height where the new best chain diverges from the old one is re-written
// and the head record is updated, in one batch. The new best chain is at
// least as long as the old, so nothing above it needs deleting. Caller
// holds c.mu with c.bestChain already switched; oldBest is the previous
// best chain.
func (c *Chain) persistReorgLocked(oldBest []crypto.Digest) {
	if c.storeKV == nil {
		return
	}
	newBest := c.bestChain
	puts := make(map[string][]byte)
	for h := 1; h < len(newBest); h++ {
		if h < len(oldBest) && oldBest[h] == newBest[h] {
			continue // shared prefix: already persisted
		}
		puts[persistBlockKey(uint64(h))] = c.blocks[newBest[h]].Encode()
	}
	puts[persistHeadKey] = persistHeadRecord(uint64(len(newBest) - 1))
	if err := c.storeKV.Batch(puts); err != nil {
		c.persistErrs.Inc()
		return
	}
	c.persisted.Add(int64(len(puts) - 1))
}

// truncateStoreAbove drops persisted blocks above height and resets the
// head record, discarding a tail that failed validation on reload (torn
// final write, tampered records). The surviving prefix stays loadable.
func truncateStoreAbove(kv *store.KV, height uint64) error {
	for _, key := range kv.Keys(persistBlockPrefix) {
		if key > persistBlockKey(height) {
			if err := kv.Delete(key); err != nil {
				return err
			}
		}
	}
	return kv.Put(persistHeadKey, persistHeadRecord(height))
}

// LoadFromStore replays a snapshot into the chain with full validation
// (signatures, PoW, difficulty, the replay rule) and returns how many
// blocks were applied. The chain should be freshly constructed with the
// same Config that produced the snapshot; a snapshot from a different
// genesis fails validation on its first block. On error the returned count
// still reports the validated prefix that was applied — callers may
// truncate the store there and recover the rest from peers.
func (c *Chain) LoadFromStore(kv *store.KV) (int, error) {
	raw, err := kv.Get(persistHeadKey)
	if errors.Is(err, store.ErrNotFound) {
		return 0, nil // empty store: nothing to load
	}
	if err != nil {
		return 0, err
	}
	if len(raw) != 8 {
		return 0, fmt.Errorf("blockchain: load: corrupt head record")
	}
	head := binary.BigEndian.Uint64(raw)
	applied := 0
	for h := uint64(1); h <= head; h++ {
		data, err := kv.Get(persistBlockKey(h))
		if err != nil {
			return applied, fmt.Errorf("blockchain: load: missing block at height %d: %w", h, err)
		}
		b, err := DecodeBlock(data)
		if err != nil {
			return applied, fmt.Errorf("blockchain: load height %d: %w", h, err)
		}
		if err := c.AddBlock(b); err != nil && !errors.Is(err, ErrKnownBlock) {
			return applied, fmt.Errorf("blockchain: load height %d: %w", h, err)
		}
		applied++
	}
	return applied, nil
}
