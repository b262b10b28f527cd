package blockchain

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"drams/internal/store"
)

// buildTestChain mines a chain of blocks, one transaction each. A non-nil
// kv receives every block through AttachStore's incremental path as it
// joins the best chain.
func buildTestChain(t *testing.T, blocks int, kv *store.KV) *Chain {
	t.Helper()
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	c.AttachStore(kv)
	parent := c.Genesis()
	for i := 1; i <= blocks; i++ {
		tx, err := NewTransaction(alice, uint64(i), putCall(fmt.Sprintf("k%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		b := mineChild(t, c, parent, tx)
		if err := c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		parent = b.Hash()
	}
	return c
}

func TestSaveLoadRoundTrip(t *testing.T) {
	kv := store.NewMemory()
	src := buildTestChain(t, 5, kv)
	alice := testIdentity(t, "alice", 1)
	dst := NewChain(testChainConfig(t, alice))
	n, err := dst.LoadFromStore(kv)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("applied %d blocks, want 5", n)
	}
	if dst.Height() != 5 {
		t.Fatalf("height = %d", dst.Height())
	}
	if dst.StateDigest() != src.StateDigest() {
		t.Fatal("restored state differs")
	}
	if dh, _ := dst.Head(); dh != src.BestChainHashes()[5] {
		t.Fatal("restored head differs")
	}
}

func TestLoadEmptyStore(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	n, err := c.LoadFromStore(store.NewMemory())
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestLoadRejectsTamperedSnapshot(t *testing.T) {
	kv := store.NewMemory()
	buildTestChain(t, 4, kv)
	// Attacker flips a byte of a stored block: validation must fail.
	key := persistBlockKey(2)
	raw, err := kv.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload tail (lands in the last signature or the
	// structural framing, depending on format).
	mutated := make([]byte, len(raw))
	copy(mutated, raw)
	mutated[len(mutated)-1] ^= 0xff
	kv.TamperUnderlying(key, mutated)

	alice := testIdentity(t, "alice", 1)
	dst := NewChain(testChainConfig(t, alice))
	if _, err := dst.LoadFromStore(kv); err == nil {
		t.Fatal("tampered snapshot loaded")
	}
}

func TestLoadMissingBlockFails(t *testing.T) {
	kv := store.NewMemory()
	buildTestChain(t, 4, kv)
	if err := kv.Delete(persistBlockKey(2)); err != nil {
		t.Fatal(err)
	}
	alice := testIdentity(t, "alice", 1)
	dst := NewChain(testChainConfig(t, alice))
	if _, err := dst.LoadFromStore(kv); err == nil {
		t.Fatal("gap in snapshot not reported")
	}
}

func TestSaveLoadThroughWALFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.wal")
	kv, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	src := buildTestChain(t, 3, kv)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	alice := testIdentity(t, "alice", 1)
	dst := NewChain(testChainConfig(t, alice))
	if _, err := dst.LoadFromStore(kv2); err != nil {
		t.Fatal(err)
	}
	if dst.StateDigest() != src.StateDigest() {
		t.Fatal("WAL round trip lost state")
	}
}

// TestReorgRewritesPersistedHeights: a reorganisation rewrites the heights
// where the new best chain differs from the old. The chain first moves to
// an equal-height sibling that wins the hash tie-break, then to a longer
// branch forking lower down. Reopened from the store, it lands on the new
// head with the same state, and the store holds exactly heights 1..head,
// each the new best chain's block.
func TestReorgRewritesPersistedHeights(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	kv := store.NewMemory()
	c := buildTestChain(t, 3, kv)
	old := c.BestChainHashes()

	var sibling *Block
	for i := 0; sibling == nil; i++ {
		tx, err := NewTransaction(alice, 2, putCall(fmt.Sprintf("sibling-%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		if b := mineChild(t, c, old[2], tx); bytes.Compare(b.Hash().Bytes(), old[3].Bytes()) < 0 {
			sibling = b
		}
	}
	if err := c.AddBlock(sibling); err != nil {
		t.Fatal(err)
	}
	if h, _ := c.Head(); h != sibling.Hash() {
		t.Fatal("the sibling with the smaller hash did not take the head")
	}

	parent := old[1]
	for i := 0; i < 3; i++ {
		tx, err := NewTransaction(alice, 1, putCall(fmt.Sprintf("branch-%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		b := mineChild(t, c, parent, tx)
		if err := c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		parent = b.Hash()
	}
	head, height := c.Head()
	if head != parent || height != 4 {
		t.Fatalf("head at height %d is not the longer branch's tip", height)
	}
	if st := c.PersistStats(); st.PersistErrors != 0 {
		t.Fatalf("%d persist errors", st.PersistErrors)
	}

	dst := NewChain(testChainConfig(t, alice))
	n, err := dst.LoadFromStore(kv)
	if err != nil {
		t.Fatal(err)
	}
	if dh, _ := dst.Head(); n != 4 || dh != head {
		t.Fatalf("reopened %d blocks onto %s, want 4 onto %s", n, dh.Short(), head.Short())
	}
	if dst.StateDigest() != c.StateDigest() {
		t.Fatal("reopened state differs")
	}
	keys := kv.Keys(persistBlockPrefix)
	if len(keys) != 4 {
		t.Fatalf("store holds block keys %v, want heights 1..4", keys)
	}
	for h := uint64(1); h <= 4; h++ {
		if keys[h-1] != persistBlockKey(h) {
			t.Fatalf("store holds block keys %v, want heights 1..4", keys)
		}
		raw, err := kv.Get(persistBlockKey(h))
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := c.BlockByHeight(h); !bytes.Equal(raw, b.Encode()) {
			t.Fatalf("stored block at height %d is not the best chain's", h)
		}
	}
}
