package blockchain

import (
	"context"
	"testing"
	"time"
)

// A gossip filter returning false for everything models a withholding
// member: it keeps mining and importing, but nothing leaves the node — not
// block announcements, not tx rebroadcasts.
func TestGossipFilterSuppressesOutbound(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	nodes, _ := testCluster(t, 2, alice)
	byz, honest := nodes[0], nodes[1]

	byz.SetGossipFilter(func(kind string, payload []byte) bool { return false })

	tx, _ := NewTransaction(alice, 0, putCall("held", "v"))
	if err := byz.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if rec, err := byz.WaitForReceipt(ctx, tx.ID(), 1); err != nil || !rec.OK {
		t.Fatalf("withholding node must still mine locally: rec=%+v err=%v", rec, err)
	}
	// Outlast a few rebroadcast intervals: neither the block announcement
	// nor the periodic tx re-gossip may leak.
	time.Sleep(600 * time.Millisecond)
	if _, _, err := honest.Chain().Receipt(tx.ID()); err == nil || honest.Mempool().Has(tx.ID()) {
		t.Fatalf("gossip leaked through the filter: honest node holds tx (receipt err %v)", err)
	}

	// After release the next mined block announces normally and the honest
	// node backfills the withheld ancestor.
	byz.SetGossipFilter(nil)
	tx2, _ := NewTransaction(alice, byz.Chain().Height(), putCall("free", "v"))
	if err := byz.SubmitTx(tx2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		_, _, err1 := honest.Chain().Receipt(tx.ID())
		_, _, err2 := honest.Chain().Receipt(tx2.ID())
		return err1 == nil && err2 == nil
	}, "honest node catches up after gossip release")
}

// A collect filter models a censoring producer: submitted transactions stay
// pending (valid, rebroadcastable) but never enter this node's blocks.
func TestCollectFilterCensorsSender(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	nodes, _ := testCluster(t, 1, alice)
	n := nodes[0]

	n.SetCollectFilter(func(txs []Transaction) []Transaction {
		out := make([]Transaction, 0, len(txs))
		for _, tx := range txs {
			if tx.From != "alice" {
				out = append(out, tx)
			}
		}
		return out
	})

	tx, _ := NewTransaction(alice, 0, putCall("censored", "v"))
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if _, _, err := n.Chain().Receipt(tx.ID()); err == nil || !n.Mempool().Has(tx.ID()) {
		t.Fatalf("censored tx was mined or dropped from the pool (receipt err %v)", err)
	}

	// Lifting the filter frees the held transaction; the second submission
	// wakes the (otherwise idle) mining loop.
	n.SetCollectFilter(nil)
	tx2, _ := NewTransaction(alice, n.Chain().Height(), putCall("after", "v"))
	if err := n.SubmitTx(tx2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if rec, err := n.WaitForReceipt(ctx, tx.ID(), 1); err != nil || !rec.OK {
		t.Fatalf("held tx not mined after lift: rec=%+v err=%v", rec, err)
	}
}
