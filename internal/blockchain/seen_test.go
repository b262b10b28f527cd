package blockchain

import (
	"testing"
	"time"

	"drams/internal/clock"
	"drams/internal/crypto"
	"drams/internal/netsim"
)

func TestSeenCacheRemembersWithinWindow(t *testing.T) {
	clk := clock.NewMock(time.Unix(1700000000, 0))
	c := newSeenCache(8, clk)
	d := crypto.Sum([]byte("payload"))
	if c.has(d) {
		t.Fatal("fresh cache claims to have seen the digest")
	}
	c.add(d)
	if !c.has(d) {
		t.Fatal("digest forgotten immediately after add")
	}
	// Still held one rotation later (entry moves to the previous
	// generation), gone after two.
	clk.Advance(seenTTL + time.Millisecond)
	if !c.has(d) {
		t.Fatal("digest dropped after a single rotation")
	}
	clk.Advance(seenTTL + time.Millisecond)
	if c.has(d) {
		t.Fatal("digest survived two rotations")
	}
}

func TestSeenCacheRotatesWhenFull(t *testing.T) {
	clk := clock.NewMock(time.Unix(1700000000, 0))
	c := newSeenCache(4, clk)
	first := crypto.Sum([]byte("first"))
	c.add(first)
	// Filling the current generation twice over churns first out even
	// though no time has passed.
	for i := 0; i < 8; i++ {
		c.add(crypto.Sum([]byte{byte(i)}))
	}
	if c.has(first) {
		t.Fatal("digest survived two size-triggered rotations")
	}
}

// After warm-up, marking and looking up digests across rotations, by fill
// and by time, allocates nothing: a rotation swaps the generations and
// clears the retired one in place.
func TestSeenCacheRotationAllocBudget(t *testing.T) {
	clk := clock.NewMock(time.Unix(1700000000, 0))
	c := newSeenCache(64, clk)
	ds := make([]crypto.Digest, 100)
	for i := range ds {
		ds[i] = crypto.Sum([]byte{byte(i)})
	}
	round := func() {
		// 100 distinct marks into 64-digest generations: a rotation by fill.
		for _, d := range ds {
			c.add(d)
		}
		if !c.has(ds[len(ds)-1]) {
			t.Error("the last mark is forgotten")
		}
		clk.Advance(seenTTL) // the next call rotates by time
		c.has(ds[0])
	}
	round()
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("add/has across rotations allocate %.1f/round, want 0", n)
	}
}

// TestTxGossipDedupSkipsDecode verifies the node-level effect: a payload
// delivered twice is admitted once and the duplicate is dropped before
// admission (no queue slot, no double-add error surfaced).
func TestTxGossipDedupSkipsDecode(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 7})
	defer net.Close()
	node, err := NewNode(NodeConfig{
		Name:    "solo",
		Chain:   testChainConfig(t, alice),
		Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	tx, err := NewTransaction(alice, 1, putCall("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeTx(tx)
	key := crypto.Sum(payload)
	node.handleTxGossip("peer", payload)
	waitFor(t, 5*time.Second, func() bool { return node.pool.Has(tx.ID()) },
		"gossiped tx never admitted")
	if !node.seenTx.has(key) {
		t.Fatal("admitted payload not remembered by the dedup cache")
	}
	node.handleTxGossip("peer", payload) // duplicate: digest short-circuits
	if got := node.pool.Len(); got != 1 {
		t.Fatalf("pool holds %d txs after duplicate delivery, want 1", got)
	}
}
