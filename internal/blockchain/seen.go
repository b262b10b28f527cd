package blockchain

import (
	"sync"
	"time"

	"drams/internal/clock"
	"drams/internal/crypto"
)

// seenCache is a bounded set of recently marked digests, kept in two
// generations: inserts go to the current generation, lookups consult both,
// and the generations rotate when the current one fills — or, when the
// cache has a clock, once seenTTL has elapsed. A digest is therefore
// remembered for at least one and at most two rotation periods, and the set
// never holds more than two generations.
//
// The node keeps two of them. Its gossip seen-cache (with a clock) remembers
// the payloads of recently handled tx frames, so the periodic rebroadcast
// flood (every peer re-sends its pending transactions a few times a second)
// costs a duplicate one hash instead of a wire decode plus transaction-ID
// derivation, and a payload that becomes relevant again (a transaction
// dropped in a reorg and re-gossiped) is only muted briefly. The verifier's
// memo (no clock, see TxVerifier) remembers the IDs of transactions whose
// signatures checked out; only traffic rotates it.
type seenCache struct {
	mu        sync.Mutex
	cur, prev map[crypto.Digest]struct{}
	max       int
	clk       clock.Clock // nil: rotate on fill only
	rotated   time.Time
}

const (
	seenCacheSize = 4096
	seenTTL       = 2 * time.Second
)

// newSeenCache returns a cache of max digests per generation. A nil clk
// rotates on fill only. Both generations start empty and grow to the
// traffic they see.
func newSeenCache(max int, clk clock.Clock) *seenCache {
	c := &seenCache{
		cur:  map[crypto.Digest]struct{}{},
		prev: map[crypto.Digest]struct{}{},
		max:  max,
		clk:  clk,
	}
	if clk != nil {
		c.rotated = clk.Now()
	}
	return c
}

// rotateLocked starts a fresh generation when the current one is full or
// stale. The retired generation's map is cleared and becomes the current
// one, so a rotation allocates nothing.
func (c *seenCache) rotateLocked() {
	if len(c.cur) < c.max && (c.clk == nil || c.clk.Since(c.rotated) < seenTTL) {
		return
	}
	c.prev, c.cur = c.cur, c.prev
	clear(c.cur)
	if c.clk != nil {
		c.rotated = c.clk.Now()
	}
}

// has reports whether d was marked within the retention window.
func (c *seenCache) has(d crypto.Digest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rotateLocked()
	if _, ok := c.cur[d]; ok {
		return true
	}
	_, ok := c.prev[d]
	return ok
}

// len reports how many digests are currently retained (both generations).
func (c *seenCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cur) + len(c.prev)
}

// add marks d as handled.
func (c *seenCache) add(d crypto.Digest) {
	c.mu.Lock()
	c.rotateLocked()
	c.cur[d] = struct{}{}
	c.mu.Unlock()
}
