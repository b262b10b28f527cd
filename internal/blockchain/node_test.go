package blockchain

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/netsim"
)

// testCluster spins up n mining nodes sharing a network and identity set.
func testCluster(t *testing.T, n int, ids ...*crypto.Identity) ([]*Node, *netsim.Network) {
	t.Helper()
	net := netsim.New(netsim.Config{BaseLatency: time.Millisecond, Jitter: time.Millisecond, Seed: 42})
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%d", i)
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(NodeConfig{
			Name:    names[i],
			Chain:   testChainConfig(t, ids...),
			Network: net,
			Peers:   names,
			Mine:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		net.Close()
	})
	for _, nd := range nodes {
		nd.Start()
	}
	return nodes, net
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func TestSingleNodeMinesSubmittedTx(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	nodes, _ := testCluster(t, 1, alice)
	n := nodes[0]
	tx, _ := NewTransaction(alice, 1, putCall("k", "v"))
	if err := n.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec, err := n.WaitForReceipt(ctx, tx.ID(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.OK {
		t.Fatalf("receipt = %+v", rec)
	}
	if n.Stats().BlocksMined == 0 {
		t.Fatal("no blocks mined")
	}
}

func TestClusterConvergence(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	nodes, _ := testCluster(t, 3, alice)

	// One sender's transactions through different nodes at once: none waits
	// for another.
	var txs []Transaction
	for i := 1; i <= 6; i++ {
		tx, _ := NewTransaction(alice, 0, putCall(fmt.Sprintf("k%d", i), "v"))
		if err := nodes[i%3].SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}

	waitFor(t, 10*time.Second, func() bool {
		for _, n := range nodes {
			for _, tx := range txs {
				if _, _, err := n.Chain().Receipt(tx.ID()); err != nil {
					return false
				}
			}
		}
		d0 := nodes[0].Chain().StateDigest()
		return d0 == nodes[1].Chain().StateDigest() && d0 == nodes[2].Chain().StateDigest()
	}, "cluster state digests converge")
}

func TestGossipReachesNonMiningNode(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 7})
	defer net.Close()
	peers := []string{"miner", "observer"}
	miner, err := NewNode(NodeConfig{Name: "miner", Chain: testChainConfig(t, alice), Network: net, Peers: peers, Mine: true})
	if err != nil {
		t.Fatal(err)
	}
	observer, err := NewNode(NodeConfig{Name: "observer", Chain: testChainConfig(t, alice), Network: net, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer miner.Stop()
	defer observer.Stop()
	miner.Start()
	observer.Start()

	tx, _ := NewTransaction(alice, 1, putCall("k", "v"))
	if err := observer.SubmitTx(tx); err != nil { // submitted at the non-miner
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := observer.WaitForReceipt(ctx, tx.ID(), 1); err != nil {
		t.Fatal(err)
	}
	var got []byte
	observer.Chain().ReadState("kv", func(st contract.StateDB) { got, _ = readKV(st, "k") })
	if string(got) != "v" {
		t.Fatalf("observer state = %q", got)
	}
}

func TestPartitionHealReconvergence(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	bob := testIdentity(t, "bob", 2)
	nodes, net := testCluster(t, 2, alice, bob)
	n0, n1 := nodes[0], nodes[1]

	// Partition, let each side mine its own tx.
	net.Partition([]string{"node-0"}, []string{"node-1"})
	txA, _ := NewTransaction(alice, 1, putCall("a", "1"))
	txB, _ := NewTransaction(bob, 1, putCall("b", "1"))
	if err := n0.SubmitTx(txA); err != nil {
		t.Fatal(err)
	}
	if err := n1.SubmitTx(txB); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := n0.WaitForReceipt(ctx, txA.ID(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.WaitForReceipt(ctx, txB.ID(), 1); err != nil {
		t.Fatal(err)
	}

	// Heal; nodes must converge. Gossip of new blocks triggers orphan
	// resolution; resubmitting the minority tx is the clients' job (the LI
	// retries), here we push both txs to both pools.
	net.Heal()
	_ = n0.SubmitTx(txB)
	_ = n1.SubmitTx(txA)
	if err := n0.SyncFrom("node-1"); err != nil {
		t.Logf("sync n0<-n1: %v", err)
	}
	if err := n1.SyncFrom("node-0"); err != nil {
		t.Logf("sync n1<-n0: %v", err)
	}

	waitFor(t, 15*time.Second, func() bool {
		if n0.Chain().StateDigest() != n1.Chain().StateDigest() {
			return false
		}
		var a, b []byte
		n0.Chain().ReadState("kv", func(st contract.StateDB) {
			a, _ = readKV(st, "a")
			b, _ = readKV(st, "b")
		})
		return string(a) == "1" && string(b) == "1"
	}, "partition heal convergence with both txs applied")
}

// TestTxExpiresBehindPartition: a transaction trapped behind a partition
// until the chain has passed its expiry height is evicted from the pool
// that held it, counted as TxExpired, and mined nowhere.
func TestTxExpiresBehindPartition(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 21})
	defer net.Close()
	peers := []string{"miner", "member"}
	miner, err := NewNode(NodeConfig{Name: "miner", Chain: testChainConfig(t, alice), Network: net,
		Peers: peers, Mine: true, EmptyBlockInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer miner.Stop()
	member, err := NewNode(NodeConfig{Name: "member", Chain: testChainConfig(t, alice), Network: net, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer member.Stop()
	net.Partition([]string{"member"})
	miner.Start()
	member.Start()

	tx := signedTx(t, alice, 3, putCall("trapped", "v"))
	if err := member.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return miner.Chain().Height() > tx.ExpiresAt+2 }, "chain passes the expiry")
	net.Heal()
	waitFor(t, 10*time.Second, func() bool {
		return member.Stats().TxExpired == 1 && !member.Mempool().Has(tx.ID())
	}, "trapped tx evicted and counted")
	h := miner.Chain().Height()
	waitFor(t, 10*time.Second, func() bool { return member.Chain().Height() > h+2 }, "member follows the chain")
	for _, n := range []*Node{miner, member} {
		if _, _, err := n.Chain().Receipt(tx.ID()); !errors.Is(err, ErrTxNotFound) || n.Mempool().Has(tx.ID()) {
			t.Fatalf("%s: expired tx mined or still pooled (receipt err %v)", n.Name(), err)
		}
	}
}

func TestEmptyBlocksAdvanceChain(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 3})
	defer net.Close()
	n, err := NewNode(NodeConfig{
		Name:               "n",
		Chain:              testChainConfig(t, alice),
		Network:            net,
		Mine:               true,
		EmptyBlockInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.Start()
	waitFor(t, 10*time.Second, func() bool { return n.Chain().Height() >= 3 }, "empty blocks mined")
}

func TestSubmitAfterStop(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 5})
	defer net.Close()
	n, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Stop()
	tx, _ := NewTransaction(alice, 1, putCall("k", "v"))
	if err := n.SubmitTx(tx); !errors.Is(err, ErrStopped) {
		t.Fatalf("got %v", err)
	}
}

func TestSubmitRejectsUnknownIdentity(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	mallory := testIdentity(t, "mallory", 9)
	net := netsim.New(netsim.Config{Seed: 5})
	defer net.Close()
	n, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	tx, _ := NewTransaction(mallory, 1, putCall("k", "v"))
	if err := n.SubmitTx(tx); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("got %v", err)
	}
}

func TestLateJoinerSyncs(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	nodes, net := testCluster(t, 1, alice)
	n0 := nodes[0]
	for i := 1; i <= 3; i++ {
		tx, _ := NewTransaction(alice, uint64(i), putCall(fmt.Sprintf("k%d", i), "v"))
		if err := n0.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := n0.WaitForReceipt(ctx, tx.ID(), 1); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}
	late, err := NewNode(NodeConfig{Name: "late", Chain: testChainConfig(t, alice), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Stop()
	late.Start()
	if err := late.SyncFrom("node-0"); err != nil {
		t.Fatal(err)
	}
	if late.Chain().StateDigest() != n0.Chain().StateDigest() {
		t.Fatal("late joiner did not reach the same state")
	}
}

// TestMixedWireGossipConverges: a peer gossiping encoding/json forms of a
// transaction and a block (what a pre-binary build would emit) is speaking
// no format this build knows. Its frames are dropped on the tag byte, before
// the mempool and the chain, and the federation converges
// on what arrived in the one wire format.
func TestMixedWireGossipConverges(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	bob := testIdentity(t, "bob", 2)
	nodes, _ := testCluster(t, 2, alice, bob)

	jsonTx, err := NewTransaction(bob, 1, putCall("from-json-peer", "b"))
	if err != nil {
		t.Fatal(err)
	}
	jsonBlock := mineChild(t, nodes[0].chain, nodes[0].chain.Genesis(), jsonTx)
	for _, n := range nodes {
		n.handleTxGossip("json-peer", mustJSON(t, jsonTx))
		n.handleBlockGossip("json-peer", mustJSON(t, jsonBlock))
		if n.pool.Len() != 0 {
			t.Fatalf("%s queued a JSON tx frame", n.Name())
		}
		if _, ok := n.chain.BlockByHash(jsonBlock.Hash()); ok || n.BestSeenHeight() != 0 {
			t.Fatalf("%s imported a JSON block frame", n.Name())
		}
	}

	tx, err := NewTransaction(alice, 1, putCall("from-bin-peer", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		_, err := n.WaitForReceipt(ctx, tx.ID(), 1)
		cancel()
		if err != nil {
			t.Fatalf("%s never saw tx %s: %v", n.Name(), tx.ID().Short(), err)
		}
		if _, _, err := n.chain.Receipt(jsonTx.ID()); !errors.Is(err, ErrTxNotFound) {
			t.Fatalf("%s executed the JSON-gossiped tx (err %v)", n.Name(), err)
		}
	}
	waitFor(t, 20*time.Second, func() bool {
		return nodes[0].chain.StateDigest() == nodes[1].chain.StateDigest()
	}, "nodes never converged on one state")
}

func TestGossipScopedToChainPeers(t *testing.T) {
	// Gossip goes only to the static Peers list — never sprayed at
	// unrelated endpoints (PEPs, PDP, logger faces) sharing the transport.
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 9})
	defer net.Close()

	var stray atomic.Int64
	for _, addr := range []string{"pep@tenant-1", "pdp@infrastructure", "li-endpoint@tenant-1"} {
		ep, err := net.Register(addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{kindTx, kindBlock} {
			ep.OnMessage(kind, func(string, []byte) { stray.Add(1) })
		}
	}

	// The nodes are not started: handlers run from construction, and no
	// rebroadcast loop adds sends, which keeps the message count exact.
	names := []string{"node-0", "node-1", "node-2"}
	var nodes []*Node
	for _, name := range names {
		n, err := NewNode(NodeConfig{
			Name:    name,
			Chain:   testChainConfig(t, alice),
			Network: net,
			Peers:   names,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
	}
	base := net.Stats()

	tx, _ := NewTransaction(alice, 1, putCall("k", "v"))
	if err := nodes[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return nodes[1].Mempool().Has(tx.ID()) && nodes[2].Mempool().Has(tx.ID())
	}, "tx reaches every chain peer")

	// Close waits for every frame in flight, re-gossip included, so the
	// counts below are final.
	net.Close()
	if got := stray.Load(); got != 0 {
		t.Fatalf("non-node endpoints received %d chain gossip frames", got)
	}
	// Scoped flood: the submitter sends to its 2 chain peers, each peer
	// re-gossips at most once more — ≤ 6 sends. The old spray-to-everyone
	// behaviour would have sent to all 5 other registered addresses per
	// hop (≥ 10 sends for the same propagation).
	delta := net.Stats().Sent - base.Sent
	if delta > 6 {
		t.Fatalf("tx flood used %d sends, want ≤ 6 (gossip not scoped to chain peers)", delta)
	}
}

// A reorganisation returns the abandoned blocks' transactions to the pool,
// minus those the winning branch carries too: without that, a transaction
// mined into the losing side of a fork is in no block and no pool, and its
// records are lost.
func TestReorgReadmitsAbandonedTransactions(t *testing.T) {
	alice, bob := testIdentity(t, "alice", 1), testIdentity(t, "bob", 2)
	net := netsim.New(netsim.Config{Seed: 42})
	defer net.Close()
	n, err := NewNode(NodeConfig{Name: "node-0", Chain: testChainConfig(t, alice, bob), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	lost, _ := NewTransaction(alice, 1, putCall("k", "alice"))
	both, _ := NewTransaction(bob, 1, putCall("k", "bob"))
	for _, tx := range []Transaction{lost, both} {
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	c := n.Chain()
	b0 := mineChild(t, c, c.Genesis(), lost, both)
	n.importBlock(framed(b0), "")
	if _, h := c.Head(); h != 1 || n.Mempool().Len() != 0 {
		t.Fatalf("after the first block: height %d, %d pending; want 1, 0", h, n.Mempool().Len())
	}
	b1 := mineChild(t, c, c.Genesis(), both)
	n.importBlock(framed(b1), "")
	b2 := mineChild(t, c, b1.Hash())
	n.importBlock(framed(b2), "")
	if _, h := c.Head(); h != 2 {
		t.Fatalf("height %d after the longer branch, want 2", h)
	}
	if !n.Mempool().Has(lost.ID()) || n.Mempool().Has(both.ID()) {
		t.Fatalf("pool after reorg: lost tx pending=%v, tx carried by both branches pending=%v; want true, false",
			n.Mempool().Has(lost.ID()), n.Mempool().Has(both.ID()))
	}
}
