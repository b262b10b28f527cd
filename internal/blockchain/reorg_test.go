package blockchain

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/netsim"
)

// queueContract pushes a key per call, and its block hook writes the height
// and pops the first queued key: every block writes state, and a block after
// a push deletes a key.
type queueContract struct{}

func (queueContract) Name() string { return "queue" }

func (queueContract) Execute(_ contract.CallCtx, st contract.StateDB, call contract.Call) ([]contract.Event, error) {
	st.Set("q/"+string(call.Args), nil)
	return nil, nil
}

func (queueContract) OnBlock(height uint64, _ time.Time, st contract.StateDB) []contract.Event {
	st.Set("tick", []byte(fmt.Sprint(height)))
	k, ok := contract.FirstKey(st, "q/")
	if !ok {
		return nil
	}
	st.Delete(k)
	return []contract.Event{{Type: "Popped", Payload: []byte(k)}}
}

// reorgRig is a chain with the kv and queue contracts, and the two senders
// whose transactions fill its blocks.
type reorgRig struct {
	t          *testing.T
	cfg        Config
	c          *Chain
	alice, bob *crypto.Identity
}

func newReorgRig(t *testing.T) *reorgRig {
	alice, bob := testIdentity(t, "alice", 1), testIdentity(t, "bob", 2)
	cfg := testChainConfig(t, alice, bob)
	cfg.Registry.MustRegister(queueContract{})
	return &reorgRig{t: t, cfg: cfg, c: NewChain(cfg), alice: alice, bob: bob}
}

// block mines a child of parent, its miner the branch's tag. Every eighth height carries three
// transactions: alice's put, bob's put of the same key, which fails once
// alice owns it, and a queue push; the branch's tag goes into the values,
// so branches write different state.
func (r *reorgRig) block(parent crypto.Digest, tag string) *Block {
	r.t.Helper()
	s, ok := r.c.stored(parent)
	if !ok {
		r.t.Fatalf("parent %s unknown", parent.Short())
	}
	h := s.header.Height + 1
	var txs []Transaction
	if h%8 == 0 {
		key := fmt.Sprintf("a%d", h%40)
		for _, p := range []struct {
			id   *crypto.Identity
			call contract.Call
		}{
			{r.alice, putCall(key, fmt.Sprintf("%s-%d", tag, h))},
			{r.bob, putCall(key, "bob")},
			{r.alice, contract.Call{Contract: "queue", Args: fmt.Appendf(nil, "%s-%d", tag, h)}},
		} {
			tx, err := NewTransaction(p.id, h-1, p.call)
			if err != nil {
				r.t.Fatal(err)
			}
			txs = append(txs, tx)
		}
	}
	b := &Block{
		Header: BlockHeader{
			Height:       h,
			PrevHash:     parent,
			MerkleRoot:   ComputeMerkleRoot(txs),
			TimeUnixNano: s.header.TimeUnixNano + int64(100*time.Millisecond),
			Difficulty:   r.cfg.Difficulty,
			Miner:        tag,
		},
		Txs: txs,
	}
	if !Mine(r.t.Context(), b, 0) {
		r.t.Fatal("mining failed")
	}
	return b
}

// grow adds n blocks on tip and returns the last.
func (r *reorgRig) grow(tip crypto.Digest, n uint64, tag string) crypto.Digest {
	r.t.Helper()
	for range n {
		b := r.block(tip, tag)
		if err := r.c.AddBlock(b); err != nil {
			r.t.Fatal(err)
		}
		tip = b.Hash()
	}
	return tip
}

// checkFresh fails unless the state equals that of a fresh chain fed the
// best chain's blocks. The fresh chain shares the rig chain's verifier, so
// it does not check again the signatures that chain checked.
func (r *reorgRig) checkFresh(when string) {
	r.t.Helper()
	fresh := NewChain(r.cfg)
	fresh.verifier = r.c.verifier
	for _, hash := range r.c.BestChainHashes()[1:] {
		b, _ := r.c.BlockByHash(hash)
		if err := fresh.AddBlock(b); err != nil {
			r.t.Fatal(err)
		}
	}
	if r.c.StateDigest() != fresh.StateDigest() {
		r.t.Fatalf("%s: the state is not a fresh chain's on the best chain", when)
	}
}

// checkWindows fails unless receipts and events are kept for exactly the
// best chain's top E+1 blocks, each receipt at its block's height.
func checkWindows(t *testing.T, when string, c *Chain) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	head := uint64(len(c.bestChain) - 1)
	low := head - min(head, TxLifetime)
	want := 0
	for h := low; h <= head; h++ {
		for _, id := range c.blocks[c.bestChain[h]].ids {
			if r, ok := c.receipts[id]; !ok || r.Height != h {
				t.Fatalf("%s: receipt of a tx at %d, head %d: %+v, %v", when, h, head, r, ok)
			}
			want++
		}
	}
	if len(c.receipts) != want {
		t.Fatalf("%s: %d receipts kept, the top E+1 blocks carry %d", when, len(c.receipts), want)
	}
	for hash := range c.events {
		if h := c.blocks[hash].header.Height; h < low || c.bestChain[h] != hash {
			t.Fatalf("%s: events kept for block %s at %d, off the best chain or below its top E+1", when, hash.Short(), h)
		}
	}
}

// TestReorgUndoesToForkPoint: on a chain taller than E+1, a branch that
// forks d blocks below the head, for d = 1, 2, E and E+1, takes the head by
// undoing the d blocks above its fork point and applying its own, at most
// d+1. Both sides carry failed transactions and hook deletions. After each
// reorg the state is a fresh chain's on the new best chain, and receipts
// and events are kept for its top E+1 blocks.
func TestReorgUndoesToForkPoint(t *testing.T) {
	r := newReorgRig(t)
	c := r.c
	r.grow(c.Genesis(), TxLifetime+6, "main")
	checkWindows(t, "before any reorg", c)
	for _, depth := range []uint64{1, 2, TxLifetime, TxLifetime + 1} {
		when := fmt.Sprintf("fork at depth %d", depth)
		reorgs, undone, applied := c.reorgs.Value(), c.reorgUndone.Value(), c.reorgApplied.Value()
		fork, _ := c.BlockByHeight(c.Height() - depth)
		tip := r.grow(fork.Hash(), depth+1, fmt.Sprintf("side%d", depth))
		if head, _ := c.Head(); head != tip {
			t.Fatalf("%s: the longer branch did not take the head", when)
		}
		if got := c.reorgs.Value() - reorgs; got != 1 {
			t.Fatalf("%s: %d reorgs, want 1", when, got)
		}
		if got := c.reorgUndone.Value() - undone; got != int64(depth) {
			t.Fatalf("%s: %d blocks undone", when, got)
		}
		if got := c.reorgApplied.Value() - applied; got > int64(depth)+1 {
			t.Fatalf("%s: %d blocks applied, more than depth + 1", when, got)
		}
		r.checkFresh(when)
		checkWindows(t, when, c)
	}
	if c.reorgRefused.Value() != 0 {
		t.Fatalf("%d branches refused", c.reorgRefused.Value())
	}
}

// TestReorgDeeperThanWindowRefused: a longer branch whose fork point lies
// E+2 blocks below the head is refused. No undo list, receipt or event
// reaches that deep, so the head, the state and the receipts stay, the
// branch is kept as a side branch and the refusal counted, and neither it
// nor a second delivery of its block starts a pull.
func TestReorgDeeperThanWindowRefused(t *testing.T) {
	r := newReorgRig(t)
	net := netsim.New(netsim.Config{Seed: 7})
	t.Cleanup(func() { net.Close() })
	n, err := NewNode(NodeConfig{Name: "n", Chain: r.cfg, Network: net, Peers: []string{"n", "peer"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	r.c = n.chain
	c := n.chain
	head := r.grow(c.Genesis(), TxLifetime+2, "main")
	tip := r.grow(c.Genesis(), TxLifetime+1, "side")
	// The side block at the head's height is mined until it loses the
	// tie-break, so only the block above it betters the head.
	tie := r.block(tip, "side")
	for seed := uint64(1); ; seed++ {
		if h := tie.Hash(); bytes.Compare(h[:], head[:]) > 0 {
			break
		}
		if !Mine(t.Context(), tie, seed<<32) {
			t.Fatal("mining failed")
		}
	}
	n.importBlock(framed(tie), "peer")

	digest := c.StateDigest()
	c.mu.RLock()
	receipts, events := maps.Clone(c.receipts), maps.Clone(c.events)
	c.mu.RUnlock()
	deep := framed(r.block(tie.Hash(), "side"))
	for range 2 {
		n.importBlock(deep, "peer")
	}
	if h, _ := c.Head(); h != head {
		t.Fatal("a branch forking E+2 blocks below the head took it")
	}
	if _, ok := c.stored(deep.hash); !ok {
		t.Fatal("the refused block is not kept as a side branch")
	}
	if c.StateDigest() != digest {
		t.Fatal("a refused branch changed the state")
	}
	c.mu.RLock()
	same := maps.Equal(c.receipts, receipts) && maps.EqualFunc(c.events, events, func(a, b []contract.Event) bool {
		return slices.EqualFunc(a, b, func(x, y contract.Event) bool { return x.TxID == y.TxID && x.Type == y.Type })
	})
	c.mu.RUnlock()
	if !same {
		t.Fatal("a refused branch changed the receipts or events")
	}
	st := n.Stats()
	if st.ReorgsRefused != 1 || st.Reorgs != 0 {
		t.Fatalf("%d refused, %d reorgs; want 1 and 0", st.ReorgsRefused, st.Reorgs)
	}
	if st.SyncCalls != 0 || st.OrphansResolved != 0 {
		t.Fatalf("%d sync calls, %d orphans resolved after a refused branch", st.SyncCalls, st.OrphansResolved)
	}
	if err := c.AddBlock(deep.Block); !errors.Is(err, ErrKnownBlock) {
		t.Fatalf("the refused block again: %v", err)
	}
	checkWindows(t, "after the refusal", c)
}
