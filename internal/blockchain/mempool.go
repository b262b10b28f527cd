package blockchain

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"drams/internal/crypto"
)

// Mempool holds pending transactions by ID. Nothing in it waits for another
// transaction: what a block may carry is decided against the chain alone
// (see Chain.AddBlock's replay rule), so Collect and Prune ask the chain.
// The pool's lock is taken before the chain's, never after.
type Mempool struct {
	mu      sync.Mutex
	txs     map[crypto.Digest]*pooled
	arrived uint64
	maxSize int
	// ids and marks are scratch of sortedLocked, Collect and Prune, reused
	// under mu: the pending IDs, and which of them the chain carries or a
	// block may take.
	ids   []crypto.Digest
	marks []bool
	// free holds up to maxFree entries Prune dropped, for add to reuse. An
	// entry is 176 bytes, over the 128 a map stores inline, so the map
	// holds pointers and add takes one from here instead of allocating.
	free []*pooled
}

// maxFree bounds the dropped entries a pool keeps for reuse, about what
// one block's worth of pending transactions needs.
const maxFree = 256

// pooled is a pending transaction, its wire encoding and its arrival
// number. raw is the frame the transaction was admitted from (or, for one
// returned by a reorganisation, its encoding), which the rebroadcast sends
// again as it is. A held one is not collected into blocks until released
// (see Node.admit).
type pooled struct {
	tx   Transaction
	raw  []byte
	seq  uint64
	held bool
}

// NewMempool returns a mempool bounded to maxSize transactions (10 000 when
// maxSize <= 0).
func NewMempool(maxSize int) *Mempool {
	if maxSize <= 0 {
		maxSize = 10000
	}
	return &Mempool{txs: make(map[crypto.Digest]*pooled), maxSize: maxSize}
}

// Add inserts a transaction. A duplicate ID returns ErrKnownTx; a full pool
// returns an error.
func (m *Mempool) Add(tx Transaction) error {
	return m.add(tx, tx.ID(), EncodeTx(tx), false)
}

// add is Add for a transaction whose ID the caller derived and whose wire
// encoding raw it holds. A held transaction is pending but not collected
// until release.
func (m *Mempool) add(tx Transaction, id crypto.Digest, raw []byte, held bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.txs[id]; ok {
		return ErrKnownTx
	}
	if len(m.txs) >= m.maxSize {
		return fmt.Errorf("blockchain: mempool full (%d)", m.maxSize)
	}
	m.arrived++
	var p *pooled
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	} else {
		p = new(pooled)
	}
	*p = pooled{tx: tx, raw: raw, seq: m.arrived, held: held}
	m.txs[id] = p
	return nil
}

// dropLocked removes the entry of id and keeps it for reuse, cleared so
// that it pins none of the transaction's bytes.
func (m *Mempool) dropLocked(id crypto.Digest, p *pooled) {
	delete(m.txs, id)
	if len(m.free) < maxFree {
		*p = pooled{}
		m.free = append(m.free, p)
	}
}

// release lets Collect take a held transaction.
func (m *Mempool) release(id crypto.Digest) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.txs[id]; ok {
		p.held = false
	}
}

// Has reports whether the transaction ID is pending.
func (m *Mempool) Has(id crypto.Digest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.txs[id]
	return ok
}

// Len returns the number of pending transactions.
func (m *Mempool) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.txs)
}

// pendingLocked returns the pending IDs in m.ids, in map order.
func (m *Mempool) pendingLocked() []crypto.Digest {
	m.ids = m.ids[:0]
	for id := range m.txs {
		m.ids = append(m.ids, id)
	}
	return m.ids
}

// sortedLocked returns the pending IDs grouped by sender, each sender's in
// arrival order, in m.ids.
func (m *Mempool) sortedLocked() []crypto.Digest {
	ids := m.pendingLocked()
	slices.SortFunc(ids, func(a, b crypto.Digest) int {
		pa, pb := m.txs[a], m.txs[b]
		return cmp.Or(strings.Compare(pa.tx.From, pb.tx.From), cmp.Compare(pa.seq, pb.seq))
	})
	return ids
}

// Collect returns up to max pending transactions that a child of parent on
// c may carry: released, unexpired, already valid and not yet on parent's
// branch, grouped by sender in arrival order. They stay pooled until Prune.
func (m *Mempool) Collect(max int, c *Chain, parent crypto.Digest) []Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.sortedLocked()
	take, height := c.carried(parent, ids, m.marks)
	m.marks = take
	n := 0
	for i, id := range ids {
		p := m.txs[id]
		take[i] = !take[i] && !p.held && validAt(&p.tx, height+1) && n < max
		if take[i] {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Transaction, 0, n)
	for i, id := range ids {
		if take[i] {
			out = append(out, m.txs[id].tx)
		}
	}
	return out
}

// Frames returns the wire encodings of up to max released pending
// transactions in Collect's order, for the periodic rebroadcast after
// partitions. A held one is being relayed by its admission.
func (m *Mempool) Frames(max int) [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out [][]byte
	for _, id := range m.sortedLocked() {
		if p := m.txs[id]; !p.held && len(out) < max {
			out = append(out, p.raw)
		}
	}
	return out
}

// Prune drops every pending transaction c's best chain carries and evicts
// every one that expired at or below its head, returning how many expired.
// A transaction not yet valid above the head stays pooled.
func (m *Mempool) Prune(c *Chain) (expired int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.txs) == 0 {
		return 0
	}
	ids := m.pendingLocked()
	tip, _ := c.Head()
	onChain, head := c.carried(tip, ids, m.marks)
	m.marks = onChain
	for i, id := range ids {
		switch p := m.txs[id]; {
		case onChain[i]:
			m.dropLocked(id, p)
		case p.tx.ExpiresAt <= head:
			m.dropLocked(id, p)
			expired++
		}
	}
	return expired
}
