package blockchain

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/metrics"
)

// Parallel block apply. Block validation executes non-conflicting contract
// transactions speculatively in parallel (optimistic concurrency control),
// then commits them in transaction order:
//
//  1. Speculate: every transaction runs concurrently against the pre-block
//     state through a trackingState that records its read set (exact keys
//     plus Keys() prefix scans) and buffers its writes.
//  2. Commit in order: transaction i's speculative result is valid iff no
//     key it read was written (or deleted) by a committed transaction
//     0..i-1 — the conflict rule is "your read set intersects an earlier
//     write set", with a prefix scan conflicting when any earlier write
//     falls under the scanned prefix. Valid results apply their buffered
//     writes; conflicting transactions re-execute sequentially against the
//     current state.
//
// Because commits happen in transaction order and every conflicting
// transaction re-executes on the committed state, the resulting state,
// receipts and event order are byte-identical to sequential application on
// every replica — parallelism is a local execution strategy, not a
// consensus parameter. In the DRAMS workload, probe-log transactions for
// different request IDs touch disjoint key sets (rec/<reqID>/..., keyed by
// request), so typical blocks commit almost entirely from the speculative
// pass.

// parallelApplyMinTxs is the block size below which goroutine fan-out costs
// more than it saves and application stays sequential.
const parallelApplyMinTxs = 8

// trackingState is the speculative execution view: reads fall through to
// the pre-block base state and are recorded; writes and deletes are
// buffered. The contract engine's own per-call overlay commits into it, so
// after execution `writes`/`deletes` hold the transaction's net effect.
type trackingState struct {
	base     contract.StateDB
	reads    map[string]struct{}
	prefixes []string
	writes   map[string][]byte
	deletes  map[string]bool
}

func newTrackingState(base contract.StateDB) *trackingState {
	return &trackingState{
		base:    base,
		reads:   make(map[string]struct{}),
		writes:  make(map[string][]byte),
		deletes: make(map[string]bool),
	}
}

func (t *trackingState) Get(key string) ([]byte, bool) {
	t.reads[key] = struct{}{}
	if t.deletes[key] {
		return nil, false
	}
	if v, ok := t.writes[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, true
	}
	return t.base.Get(key)
}

func (t *trackingState) Set(key string, value []byte) {
	delete(t.deletes, key)
	cp := make([]byte, len(value))
	copy(cp, value)
	t.writes[key] = cp
}

func (t *trackingState) Delete(key string) {
	delete(t.writes, key)
	t.deletes[key] = true
}

func (t *trackingState) Keys(prefix string) []string {
	t.prefixes = append(t.prefixes, prefix)
	set := make(map[string]bool)
	for _, k := range t.base.Keys(prefix) {
		set[k] = true
	}
	for k := range t.writes {
		if strings.HasPrefix(k, prefix) {
			set[k] = true
		}
	}
	for k := range t.deletes {
		delete(set, k)
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// conflictsWith reports whether this transaction's recorded read set
// intersects the given committed write/delete key set.
func (t *trackingState) conflictsWith(written map[string]struct{}) bool {
	if len(written) == 0 {
		return false
	}
	for k := range t.reads {
		if _, ok := written[k]; ok {
			return true
		}
	}
	for _, p := range t.prefixes {
		for k := range written {
			if strings.HasPrefix(k, p) {
				return true
			}
		}
	}
	return false
}

// commitTo applies the buffered effects to dst and records the touched keys
// in written.
func (t *trackingState) commitTo(dst contract.StateDB, written map[string]struct{}) {
	for k, v := range t.writes {
		dst.Set(k, v)
		written[k] = struct{}{}
	}
	for k := range t.deletes {
		dst.Delete(k)
		written[k] = struct{}{}
	}
}

// ApplyStats are the parallel-apply observability counters.
type ApplyStats struct {
	// ParallelBlocks / SequentialBlocks count how blocks were applied
	// (sequential includes small blocks under the parallel threshold).
	ParallelBlocks   int64
	SequentialBlocks int64
	// SpeculativeTxs counts transactions whose speculative result
	// committed; ConflictTxs counts transactions re-executed sequentially
	// after a read-write conflict with an earlier transaction.
	SpeculativeTxs int64
	ConflictTxs    int64
}

// applyMetrics lives on Chain.
type applyMetrics struct {
	parallelBlocks   metrics.Counter
	sequentialBlocks metrics.Counter
	speculativeTxs   metrics.Counter
	conflictTxs      metrics.Counter
}

// txResult is one transaction's speculative outcome.
type txResult struct {
	ts     *trackingState
	events []contract.Event
	err    error
}

// applyWorkers resolves the effective speculative-execution pool size.
func (c *Chain) applyWorkers() int {
	if c.cfg.ApplyWorkers > 0 {
		return c.cfg.ApplyWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// applyParallelLocked is the OCC path of applyBlockLocked. Caller holds
// c.mu; the speculative goroutines touch only the engine (stateless) and
// the internally-locked state.
func (c *Chain) applyParallelLocked(b *Block, ids []crypto.Digest, state *contract.State, nonces map[string]uint64) []contract.Event {
	results := make([]txResult, len(b.Txs))
	workers := c.applyWorkers()
	if workers > len(b.Txs) {
		workers = len(b.Txs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.Txs) {
					return
				}
				tx := &b.Txs[i]
				ts := newTrackingState(state)
				evs, err := c.engine.Execute(contract.CallCtx{
					Height:    b.Header.Height,
					BlockTime: b.Header.Time(),
					TxID:      ids[i],
					Caller:    tx.From,
				}, ts, tx.Call)
				results[i] = txResult{ts: ts, events: evs, err: err}
			}
		}()
	}
	wg.Wait()

	var events []contract.Event
	written := make(map[string]struct{})
	for i := range b.Txs {
		tx := &b.Txs[i]
		nonces[tx.From] = tx.Nonce
		res := &results[i]
		if res.ts.conflictsWith(written) {
			// A committed earlier transaction invalidated this speculative
			// run: redo it against the current state, which now includes
			// all earlier effects — exactly the sequential semantics.
			c.applyMet.conflictTxs.Inc()
			ts := newTrackingState(state)
			evs, err := c.engine.Execute(contract.CallCtx{
				Height:    b.Header.Height,
				BlockTime: b.Header.Time(),
				TxID:      ids[i],
				Caller:    tx.From,
			}, ts, tx.Call)
			res = &txResult{ts: ts, events: evs, err: err}
		} else {
			c.applyMet.speculativeTxs.Inc()
		}
		res.ts.commitTo(state, written)
		rec := Receipt{TxID: ids[i], Height: b.Header.Height, OK: res.err == nil, Events: res.events}
		if res.err != nil {
			rec.Err = res.err.Error()
		}
		c.receipts[ids[i]] = rec
		c.txHeight[ids[i]] = b.Header.Height
		events = append(events, res.events...)
	}
	events = append(events, c.engine.OnBlock(b.Header.Height, b.Header.Time(), state)...)
	return events
}

// ApplyStats snapshots the parallel-apply counters.
func (c *Chain) ApplyStats() ApplyStats {
	return ApplyStats{
		ParallelBlocks:   c.applyMet.parallelBlocks.Value(),
		SequentialBlocks: c.applyMet.sequentialBlocks.Value(),
		SpeculativeTxs:   c.applyMet.speculativeTxs.Value(),
		ConflictTxs:      c.applyMet.conflictTxs.Value(),
	}
}
