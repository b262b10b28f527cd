package blockchain

import (
	"context"
	"testing"
	"time"

	"drams/internal/netsim"
)

// Tests for what a gossiped block frame costs a follower: the frame it
// received is the frame it relays, and a copy of a block it already holds
// is dropped before its body is decoded.

// relayRig is a follower, "f1", of a three-node set and a block it does not
// hold yet, with the frame that block travels in.
func relayRig(t *testing.T) (*Node, *Block, []byte) {
	t.Helper()
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 23})
	t.Cleanup(func() { net.Close() })
	names := []string{"producer", "f1", "f2"}
	n, err := NewNode(NodeConfig{Name: "f1", Chain: testChainConfig(t, alice), Network: net, Peers: names})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	b := mineChild(t, n.chain, n.chain.Genesis(), testTxs(t, alice, 3)...)
	return n, b, b.Encode()
}

// TestGossipRelaysReceivedFrame: a follower relays a gossiped block in the
// frame it received, the frame its chain keeps, to every chain peer but the
// sender, and encodes nothing.
func TestGossipRelaysReceivedFrame(t *testing.T) {
	n, b, frame := relayRig(t)
	relayed := make(chan []byte, 4)
	n.SetGossipFilter(func(kind string, payload []byte) bool {
		if kind == WireBlock {
			relayed <- payload
		}
		return true
	})
	n.handleBlockGossip("producer", frame)
	select {
	case got := <-relayed:
		if len(got) != len(frame) || &got[0] != &frame[0] {
			t.Fatal("the relayed block frame is a fresh encoding, not the frame received")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the block was not relayed")
	}
	if head, _ := n.chain.Head(); head != b.Hash() {
		t.Fatal("the relayed block is not the follower's head")
	}
}

// TestGossipDuplicateFrameAllocBudget: a follower gets each block once from
// its producer and once more through every other follower's relay. The copy
// of a block it holds is dropped once its header is hashed: no body decode,
// no allocation, and its height is still noted. A frame too short for a
// header is refused.
func TestGossipDuplicateFrameAllocBudget(t *testing.T) {
	n, b, frame := relayRig(t)
	n.importFrame(inboundBlock{from: "producer", payload: frame})
	if _, ok := n.chain.BlockByHash(b.Hash()); !ok {
		t.Fatal("the first copy was not imported")
	}
	n.bestSeen.Store(0)
	dup := inboundBlock{from: "f2", payload: frame}
	if allocs := testing.AllocsPerRun(100, func() { n.importFrame(dup) }); allocs != 0 {
		t.Fatalf("a duplicate block frame allocates %.0f, want 0: its body was decoded", allocs)
	}
	if n.BestSeenHeight() != b.Header.Height {
		t.Fatalf("best seen height %d after a duplicate of height %d", n.BestSeenHeight(), b.Header.Height)
	}
	if st := n.Stats(); st.BlocksAccepted != 1 || st.BlocksRejected != 0 {
		t.Fatalf("%d accepted, %d rejected after one block and its copies", st.BlocksAccepted, st.BlocksRejected)
	}
	short := inboundBlock{from: "f2", payload: frame[:headerNonceAt]}
	n.bestSeen.Store(0)
	n.importFrame(short)
	if n.BestSeenHeight() != 0 || n.Stats().BlocksRejected != 0 {
		t.Fatal("a frame too short for a header was read")
	}
}

// cancelAfterFirstLook is a context that is live the first time it is
// asked, through Err or Done, and cancelled from then on: a cancellation
// that lands just after a mining attempt started.
type cancelAfterFirstLook struct {
	context.Context
	looks        int
	live, closed chan struct{}
}

func newCancelAfterFirstLook() *cancelAfterFirstLook {
	c := &cancelAfterFirstLook{Context: context.Background(), live: make(chan struct{}), closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *cancelAfterFirstLook) Done() <-chan struct{} {
	if c.looks++; c.looks == 1 {
		return c.live
	}
	return c.closed
}

func (c *cancelAfterFirstLook) Err() error {
	if c.looks++; c.looks == 1 {
		return nil
	}
	return context.Canceled
}

// TestMineSeesCancellationWithin64Attempts: at difficulty 8 an attempt
// expects 256 hashes. A cancellation that lands after the attempt started
// is observed at the next look, 64 attempts in, and the attempt ends
// unmined: a head that moves while a candidate is mined stops the miner
// instead of yielding a stale sibling. (Looking every 4 096 attempts, the
// miner used to find the nonce first.)
func TestMineSeesCancellationWithin64Attempts(t *testing.T) {
	b := &Block{Header: BlockHeader{Height: 7, Difficulty: 8, Miner: "m"}}
	// A seed whose solution lies more than 64 attempts away, so a miner
	// that misses the cancellation finds it.
	seed := uint64(0)
	for ; ; seed += 1 << 20 {
		probe := *b
		if !Mine(context.Background(), &probe, seed) {
			t.Fatal("an uncancelled context cancelled the attempt")
		}
		if probe.Header.Nonce-seed > 2*mineCheckEvery {
			break
		}
	}
	ctx := newCancelAfterFirstLook()
	if Mine(ctx, b, seed) {
		t.Fatalf("mined through a cancellation: nonce %d attempts in, after %d looks", b.Header.Nonce-seed, ctx.looks)
	}
	if ctx.looks != 2 || mineCheckEvery > 64 {
		t.Fatalf("the cancellation was seen at look %d, every %d attempts", ctx.looks, mineCheckEvery)
	}
}
