package blockchain

import (
	"errors"
	"fmt"
	"testing"

	"drams/internal/crypto"
)

func poolTx(t *testing.T, id *crypto.Identity, n uint64) Transaction {
	t.Helper()
	tx, err := NewTransaction(id, 0, putCall(fmt.Sprintf("%s-k%d", id.Name(), n), "v"))
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// keys labels each transaction by its sender and call args, in order.
func keys(txs []Transaction) []string {
	out := make([]string, len(txs))
	for i, tx := range txs {
		out[i] = fmt.Sprintf("%s %s", tx.From, tx.Call.Args)
	}
	return out
}

func TestMempoolAddAndDuplicate(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	p := NewMempool(0)
	tx := poolTx(t, alice, 1)
	if err := p.Add(tx); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx); !errors.Is(err, ErrKnownTx) {
		t.Fatalf("duplicate: %v", err)
	}
	if !p.Has(tx.ID()) || p.Len() != 1 {
		t.Fatal("pool state wrong")
	}
}

// The same call signed twice is two transactions: each has its own salt, so
// neither shadows the other.
func TestMempoolSameCallTwiceIsTwoTxs(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	p := NewMempool(0)
	tx1, _ := NewTransaction(alice, 0, putCall("a", "1"))
	tx1b, _ := NewTransaction(alice, 0, putCall("a", "1"))
	for _, tx := range []Transaction{tx1, tx1b} {
		if err := p.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d, want 2", p.Len())
	}
}

func TestMempoolCollectExecutableOrder(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	bob := testIdentity(t, "bob", 2)
	c := NewChain(testChainConfig(t, alice, bob))
	p := NewMempool(0)
	arrivals := []Transaction{poolTx(t, bob, 3), poolTx(t, alice, 2), poolTx(t, bob, 1), poolTx(t, alice, 1)}
	for _, tx := range arrivals {
		if err := p.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	// Grouped by sender, each sender's in arrival order; nothing is held
	// back for a missing predecessor.
	got := keys(p.Collect(10, c, c.Genesis()))
	want := keys([]Transaction{arrivals[1], arrivals[3], arrivals[0], arrivals[2]})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("collected %v, want %v", got, want)
	}
}

// Collect offers a block only what its parent's branch may carry next:
// neither a transaction already on that branch nor one outside its validity
// window at the block's height.
func TestMempoolCollectSkipsCarriedAndInvalid(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	mined, pending := poolTx(t, alice, 1), poolTx(t, alice, 2)
	b1 := mineChild(t, c, c.Genesis(), mined)
	if err := c.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	p := NewMempool(0)
	expired := signedTx(t, alice, 1, putCall("old", "v"))
	early := signedTx(t, alice, 2+TxLifetime+1, putCall("early", "v"))
	for _, tx := range []Transaction{mined, pending, expired, early} {
		if err := p.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Collect(10, c, b1.Hash()); len(got) != 1 || got[0].ID() != pending.ID() {
		t.Fatalf("on the head collected %v, want only the pending tx", keys(got))
	}
	// A sibling of b1 is on a branch that carries nothing yet.
	if got := p.Collect(10, c, c.Genesis()); len(got) != 3 {
		t.Fatalf("on genesis collected %v, want the mined, pending and expiring txs", keys(got))
	}
}

func TestMempoolCollectMax(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	p := NewMempool(0)
	for n := uint64(1); n <= 5; n++ {
		_ = p.Add(poolTx(t, alice, n))
	}
	if got := p.Collect(3, c, c.Genesis()); len(got) != 3 {
		t.Fatalf("collected %d, want 3", len(got))
	}
}

// Prune drops what the best chain carries, evicts and counts what expired at
// or below the head, and keeps a transaction that is not valid yet.
func TestMempoolPruneConfirmed(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	bob := testIdentity(t, "bob", 2)
	c := NewChain(testChainConfig(t, alice, bob))
	a1, a2, b1 := poolTx(t, alice, 1), poolTx(t, alice, 2), poolTx(t, bob, 1)
	expired := signedTx(t, alice, 2, putCall("old", "v"))
	early := signedTx(t, bob, 2+TxLifetime+1, putCall("early", "v"))
	p := NewMempool(0)
	for _, tx := range []Transaction{a1, a2, b1, expired, early} {
		_ = p.Add(tx)
	}
	if err := c.AddBlock(mineChild(t, c, c.Genesis(), a1)); err != nil {
		t.Fatal(err)
	}
	if n := p.Prune(c); n != 0 {
		t.Fatalf("pruned %d as expired at height 1, want 0", n)
	}
	if p.Has(a1.ID()) || !p.Has(expired.ID()) || !p.Has(early.ID()) {
		t.Fatal("after height 1: confirmed tx kept, or a tx valid at 2 or later evicted")
	}
	head, _ := c.Head()
	if err := c.AddBlock(mineChild(t, c, head)); err != nil {
		t.Fatal(err)
	}
	if n := p.Prune(c); n != 1 || p.Has(expired.ID()) {
		t.Fatalf("pruned %d as expired at height 2, want the one expiring at 2", n)
	}
	for _, tx := range []Transaction{a2, b1, early} {
		if !p.Has(tx.ID()) {
			t.Fatalf("%s pruned", keys([]Transaction{tx}))
		}
	}
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
}

// The rebroadcast's frames come in Collect's order, bounded, and are the
// bytes each transaction was admitted with: none is encoded again.
func TestMempoolFramesOrderedAndBounded(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	bob := testIdentity(t, "bob", 2)
	p := NewMempool(0)
	arrivals := []Transaction{poolTx(t, bob, 2), poolTx(t, alice, 1), poolTx(t, bob, 1)}
	for _, tx := range arrivals {
		_ = p.Add(tx)
	}
	var got []Transaction
	for _, raw := range p.Frames(10) {
		tx, err := DecodeTx(raw)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tx)
	}
	want := keys([]Transaction{arrivals[1], arrivals[0], arrivals[2]})
	if fmt.Sprint(keys(got)) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", keys(got), want)
	}
	if got := p.Frames(2); len(got) != 2 {
		t.Fatalf("bounded = %d", len(got))
	}
	frame := EncodeTx(poolTx(t, alice, 9))
	tx, _ := DecodeTx(frame)
	if err := p.add(tx, tx.ID(), frame, false); err != nil {
		t.Fatal(err)
	}
	for _, raw := range p.Frames(10) {
		if &raw[0] == &frame[0] {
			return
		}
	}
	t.Fatal("the admitted frame is not among the rebroadcast's frames")
}

func TestMempoolFull(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	p := NewMempool(2)
	_ = p.Add(poolTx(t, alice, 1))
	_ = p.Add(poolTx(t, alice, 2))
	if err := p.Add(poolTx(t, alice, 3)); err == nil {
		t.Fatal("overfull pool accepted tx")
	}
}

// A held transaction is pending (Has, Len, a duplicate is refused) but not
// collected into a block until it is released.
func TestMempoolHeldNotCollectedUntilReleased(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	p := NewMempool(0)
	tx := poolTx(t, alice, 1)
	if err := p.add(tx, tx.ID(), EncodeTx(tx), true); err != nil {
		t.Fatal(err)
	}
	if !p.Has(tx.ID()) || p.Len() != 1 || !errors.Is(p.Add(tx), ErrKnownTx) {
		t.Fatal("a held transaction is not pending")
	}
	if got := p.Collect(10, c, c.Genesis()); len(got) != 0 {
		t.Fatalf("collected %d held transactions", len(got))
	}
	p.release(tx.ID())
	if got := p.Collect(10, c, c.Genesis()); len(got) != 1 {
		t.Fatalf("collected %d transactions after release, want 1", len(got))
	}
}

// TestMempoolAddAllocBudget pins what pooling a transaction allocates in a
// pool that has held as many before: nothing. The pool keeps entries by
// pointer and reuses the ones Prune dropped; a 176-byte entry stored in the
// map by value, over the 128 bytes a map slot holds inline, cost one
// allocation per add. The pool holds 20 pending transactions, as a busy
// producer's does, while each run adds one that Prune then evicts.
func TestMempoolAddAllocBudget(t *testing.T) {
	const live, runs = 20, 200
	c := NewChain(testChainConfig(t))
	p := NewMempool(0)
	tx := func(i int, expires uint64) (Transaction, crypto.Digest, []byte) {
		tx := Transaction{From: "alice", ExpiresAt: expires, Call: putCall(fmt.Sprintf("k%d", i), "v")}
		tx.Salt[0], tx.Salt[1] = byte(i), byte(i>>8)
		return tx, tx.ID(), EncodeTx(tx)
	}
	for i := 0; i < live; i++ {
		tx, id, raw := tx(i, TxLifetime)
		if err := p.add(tx, id, raw, false); err != nil {
			t.Fatal(err)
		}
	}
	// Each churned transaction expires at the head's height, genesis, so
	// Prune evicts it.
	txs, ids, raws := make([]Transaction, runs+1), make([]crypto.Digest, runs+1), make([][]byte, runs+1)
	for i := range txs {
		txs[i], ids[i], raws[i] = tx(live+i, 0)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() { // AllocsPerRun warms up with one extra call
		if err := p.add(txs[next], ids[next], raws[next], false); err != nil {
			t.Fatal(err)
		}
		if expired := p.Prune(c); expired != 1 {
			t.Fatalf("Prune evicted %d, want the one expired", expired)
		}
		next++
	})
	t.Logf("%.2f allocs per add and prune", allocs)
	if p.Len() != live {
		t.Fatalf("%d pending after the churn, want %d", p.Len(), live)
	}
	if allocs > 0 {
		t.Errorf("adding a transaction to a warm pool allocates %.2f, want 0", allocs)
	}
}
