package blockchain

import (
	"fmt"
	"sort"
	"sync"

	"drams/internal/crypto"
)

// Mempool holds pending transactions by ID. Nothing in it waits for another
// transaction: what a block may carry is decided against the chain alone
// (see Chain.AddBlock's replay rule), so Collect and Prune ask the chain.
// The pool's lock is taken before the chain's, never after.
type Mempool struct {
	mu      sync.Mutex
	txs     map[crypto.Digest]pooled
	arrived uint64
	maxSize int
}

// pooled is a pending transaction and its arrival number. A held one is
// not collected into blocks until released (see Node.admit).
type pooled struct {
	tx   Transaction
	seq  uint64
	held bool
}

// NewMempool returns a mempool bounded to maxSize transactions (10 000 when
// maxSize <= 0).
func NewMempool(maxSize int) *Mempool {
	if maxSize <= 0 {
		maxSize = 10000
	}
	return &Mempool{txs: make(map[crypto.Digest]pooled), maxSize: maxSize}
}

// Add inserts a transaction. A duplicate ID returns ErrKnownTx; a full pool
// returns an error.
func (m *Mempool) Add(tx Transaction) error {
	return m.add(tx, tx.ID(), false)
}

// add is Add for a transaction whose ID the caller derived. A held
// transaction is pending but not collected until release.
func (m *Mempool) add(tx Transaction, id crypto.Digest, held bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.txs[id]; ok {
		return ErrKnownTx
	}
	if len(m.txs) >= m.maxSize {
		return fmt.Errorf("blockchain: mempool full (%d)", m.maxSize)
	}
	m.arrived++
	m.txs[id] = pooled{tx: tx, seq: m.arrived, held: held}
	return nil
}

// release lets Collect take a held transaction.
func (m *Mempool) release(id crypto.Digest) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.txs[id]; ok {
		p.held = false
		m.txs[id] = p
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

// sortedLocked returns the pending transactions and their IDs grouped by
// sender, each sender's in arrival order.
func (m *Mempool) sortedLocked() ([]Transaction, []crypto.Digest) {
	ids := make([]crypto.Digest, 0, len(m.txs))
	for id := range m.txs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := m.txs[ids[i]], m.txs[ids[j]]
		if a.tx.From != b.tx.From {
			return a.tx.From < b.tx.From
		}
		return a.seq < b.seq
	})
	txs := make([]Transaction, len(ids))
	for i, id := range ids {
		txs[i] = m.txs[id].tx
	}
	return txs, ids
}

// Collect returns up to max pending transactions that a child of parent on
// c may carry: released, unexpired, already valid and not yet on parent's
// branch, grouped by sender in arrival order. They stay pooled until Prune.
func (m *Mempool) Collect(max int, c *Chain, parent crypto.Digest) []Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	txs, ids := m.sortedLocked()
	onBranch, height := c.carried(parent, ids)
	var out []Transaction
	for i := range txs {
		if !onBranch[i] && !m.txs[ids[i]].held && validAt(&txs[i], height+1) && len(out) < max {
			out = append(out, txs[i])
		}
	}
	return out
}

// All returns up to max released pending transactions in Collect's order;
// used for periodic rebroadcast after partitions. A held one is being
// relayed by its admission.
func (m *Mempool) All(max int) []Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	txs, ids := m.sortedLocked()
	out := txs[:0]
	for i := range txs {
		if !m.txs[ids[i]].held && len(out) < max {
			out = append(out, txs[i])
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
	ids := make([]crypto.Digest, 0, len(m.txs))
	for id := range m.txs {
		ids = append(ids, id)
	}
	tip, _ := c.Head()
	onChain, head := c.carried(tip, ids)
	for i, id := range ids {
		switch {
		case onChain[i]:
			delete(m.txs, id)
		case m.txs[id].tx.ExpiresAt <= head:
			delete(m.txs, id)
			expired++
		}
	}
	return expired
}
