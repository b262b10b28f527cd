package blockchain

import (
	"reflect"
	"testing"
	"time"

	"drams/internal/netsim"
)

// Tests for the import path: gossiped blocks go through one importLoop per
// node, so with in-order links a block is imported once, after its parent,
// without a pull; a block that really is missing still costs one pull, and
// concurrent reasons to pull the same gap share one.

// TestBackToBackBlocksImportWithoutPulls: a producer emits 300 blocks far
// faster than a follower imports one, over links with more jitter than
// latency. Both followers (who also relay to each other) end on the
// producer's head without one sync call.
func TestBackToBackBlocksImportWithoutPulls(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{BaseLatency: time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 19})
	t.Cleanup(func() { net.Close() })
	names := []string{"producer", "f1", "f2"}
	nodes := make([]*Node, len(names))
	for i, name := range names {
		n, err := NewNode(NodeConfig{Name: name, Chain: testChainConfig(t, alice), Network: net, Peers: names})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		nodes[i] = n
	}
	producer, followers := nodes[0], nodes[1:]

	const blocks = 300
	parent := producer.chain.Genesis()
	for i := 1; i <= blocks; i++ {
		tx, err := NewTransaction(alice, uint64(i), putCall("k", "v"))
		if err != nil {
			t.Fatal(err)
		}
		b := mineChild(t, producer.chain, parent, tx)
		if err := producer.chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		producer.afterAccept("", b.Encode()) // what mineLoop does with a mined block
		parent = b.Hash()
	}
	for _, f := range followers {
		f := f
		waitFor(t, 20*time.Second, func() bool { h, _ := f.chain.Head(); return h == parent },
			f.Name()+" never reached the producer's head")
		st := f.Stats()
		if st.SyncCalls != 0 || st.OrphansResolved != 0 || st.ImportDropped != 0 {
			t.Fatalf("%s: %d sync calls, %d orphans resolved, %d import drops for in-order gossip, want none",
				f.Name(), st.SyncCalls, st.OrphansResolved, st.ImportDropped)
		}
		if st.BlocksAccepted != blocks {
			t.Fatalf("%s: BlocksAccepted = %d on a chain of height %d", f.Name(), st.BlocksAccepted, blocks)
		}
	}
}

// TestSkippedBlockCostsOnePullAndIsCountedOnce: block 9 never arrives, block
// 10 does, and while the pull for 9 is in flight both reach the node by
// another route. The pull's copies are then known blocks: nothing is
// counted or relayed twice, so BlocksAccepted equals the height.
func TestSkippedBlockCostsOnePullAndIsCountedOnce(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	r := newPullRig(t, alice, NodeConfig{})
	main := r.extend(t, r.src.chain.Genesis(), 12, alice)
	for _, b := range main[:8] {
		r.joiner.importBlock(framed(b), "peer")
	}
	release := r.holdPulls()
	r.joiner.handleBlockGossip("peer", main[9].Encode()) // height 10 at a node on height 8
	select {
	case <-r.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the skipped block was never pulled")
	}
	r.joiner.importBlock(framed(main[8]), "other-route")
	r.joiner.importBlock(framed(main[9]), "other-route")
	release()
	for _, b := range main[10:] {
		r.joiner.handleBlockGossip("peer", b.Encode())
	}
	waitFor(t, 5*time.Second, func() bool { return r.joiner.chain.Height() == 12 }, "joiner never reached height 12")

	if asked, served := r.windows(); !reflect.DeepEqual(asked, []int{1}) || !reflect.DeepEqual(served, []int{1}) {
		t.Fatalf("windows asked %v served %v, want exactly one pull of one block", asked, served)
	}
	st := r.joiner.Stats()
	if st.OrphansResolved != 1 || st.SyncCalls != 1 {
		t.Fatalf("OrphansResolved = %d, SyncCalls = %d, want 1 and 1", st.OrphansResolved, st.SyncCalls)
	}
	if st.BlocksAccepted != 12 {
		t.Fatalf("BlocksAccepted = %d on a chain of height 12: a block was counted where AddBlock did not insert it", st.BlocksAccepted)
	}
}

// TestImportQueueOverflowIsCountedAndRecovered: frames that arrive while the
// loop is stuck in a pull queue up to importQueue; the rest are dropped,
// counted, and fetched as missing ancestors when the next block arrives.
func TestImportQueueOverflowIsCountedAndRecovered(t *testing.T) {
	const overflow = 20
	alice := testIdentity(t, "alice", 1)
	r := newPullRig(t, alice, NodeConfig{})
	main := r.extend(t, r.src.chain.Genesis(), 10+importQueue+overflow+1, nil)
	for _, b := range main[:8] {
		r.joiner.importBlock(framed(b), "peer")
	}
	release := r.holdPulls()
	r.joiner.handleBlockGossip("peer", main[9].Encode())
	select {
	case <-r.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the import loop never started its pull")
	}
	last := len(main) - 1
	for _, b := range main[10:last] { // importQueue+overflow frames at a loop that is not reading
		r.joiner.handleBlockGossip("peer", b.Encode())
	}
	if got := r.joiner.Stats().ImportDropped; got != overflow {
		t.Fatalf("ImportDropped = %d, want %d", got, overflow)
	}
	release()
	queuedTip := uint64(10 + importQueue)
	waitFor(t, 10*time.Second, func() bool { return r.joiner.chain.Height() == queuedTip },
		"the queued frames were not imported after the pull")
	r.joiner.handleBlockGossip("peer", main[last].Encode())
	waitFor(t, 10*time.Second, func() bool { return r.joiner.chain.Height() == uint64(len(main)) },
		"the dropped frames were not recovered")
	if asked, _ := r.windows(); !reflect.DeepEqual(asked, []int{1, overflow}) {
		t.Fatalf("windows asked %v, want [1 %d]: one pull for the first gap, one for the dropped frames", asked, overflow)
	}
	// The ancestors a pull inserts are accepted blocks like any other.
	if st := r.joiner.Stats(); st.BlocksAccepted != int64(len(main)) {
		t.Fatalf("BlocksAccepted = %d on a chain of height %d", st.BlocksAccepted, len(main))
	}
}

// TestRejoinGapIsPulledOnce: a member 240 blocks behind starts its own
// SyncFrom (the daemon's catchUp) while the fleet keeps gossiping new
// blocks at it. Every one of those is a reason to pull the gap; the gap is
// fetched once.
func TestRejoinGapIsPulledOnce(t *testing.T) {
	const gap, live = 240, 40
	alice := testIdentity(t, "alice", 1)
	r := newPullRig(t, alice, NodeConfig{}) // default SyncBatch 128
	main := r.extend(t, r.src.chain.Genesis(), 8+gap, nil)
	for _, b := range main[:8] {
		r.joiner.importBlock(framed(b), "peer")
	}
	synced := make(chan error, 1)
	go func() { synced <- r.joiner.SyncFrom("peer") }()
	for _, b := range r.extend(t, main[len(main)-1].Hash(), live, nil) {
		if err := r.peer.Send("joiner", kindBlock, b.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return r.joiner.chain.Height() == 8+gap+live },
		"joiner never caught up with the live head")
	asked, _ := r.windows()
	if maxCalls := (gap+127)/128 + 2; len(asked) > maxCalls {
		t.Fatalf("%d range calls %v for a %d-block gap under live gossip, want <= %d", len(asked), asked, gap, maxCalls)
	}
	if st := r.joiner.Stats(); st.BlocksAccepted != 8+gap+live {
		t.Fatalf("BlocksAccepted = %d on a chain of height %d", st.BlocksAccepted, 8+gap+live)
	}
}
