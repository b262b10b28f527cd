package blockchain

import (
	"fmt"
	"path/filepath"
	"testing"

	"drams/internal/store"
)

func buildTestChain(t *testing.T, blocks int) *Chain {
	t.Helper()
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
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
	src := buildTestChain(t, 5)
	kv := store.NewMemory()
	if err := src.SaveToStore(kv); err != nil {
		t.Fatal(err)
	}
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

func TestSaveTruncatesStaleBlocks(t *testing.T) {
	long := buildTestChain(t, 6)
	kv := store.NewMemory()
	if err := long.SaveToStore(kv); err != nil {
		t.Fatal(err)
	}
	short := buildTestChain(t, 3)
	if err := short.SaveToStore(kv); err != nil {
		t.Fatal(err)
	}
	// Stale heights 4-6 must be gone so a load stops at 3.
	alice := testIdentity(t, "alice", 1)
	dst := NewChain(testChainConfig(t, alice))
	n, err := dst.LoadFromStore(kv)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || dst.Height() != 3 {
		t.Fatalf("n=%d height=%d", n, dst.Height())
	}
	if len(kv.Keys(persistBlockPrefix)) != 3 {
		t.Fatalf("stale blocks kept: %v", kv.Keys(persistBlockPrefix))
	}
}

func TestLoadRejectsTamperedSnapshot(t *testing.T) {
	src := buildTestChain(t, 4)
	kv := store.NewMemory()
	if err := src.SaveToStore(kv); err != nil {
		t.Fatal(err)
	}
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
	src := buildTestChain(t, 4)
	kv := store.NewMemory()
	if err := src.SaveToStore(kv); err != nil {
		t.Fatal(err)
	}
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
	src := buildTestChain(t, 3)
	path := filepath.Join(t.TempDir(), "chain.wal")
	kv, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveToStore(kv); err != nil {
		t.Fatal(err)
	}
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
