package blockchain

import (
	"bytes"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"drams/internal/crypto"
	"drams/internal/netsim"
)

// Tests for what a chain keeps of a block: its header, its transaction IDs
// and its frame, the encoding it arrived in, and no decoded body.

// holdsType reports whether a value of type t can reach a value of type
// target through its fields, elements or pointers.
func holdsType(t, target reflect.Type, seen map[reflect.Type]bool) bool {
	if t == target {
		return true
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return holdsType(t.Elem(), target, seen)
	case reflect.Map:
		return holdsType(t.Key(), target, seen) || holdsType(t.Elem(), target, seen)
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsType(t.Field(i).Type, target, seen) {
				return true
			}
		}
	}
	return false
}

// checkStored checks every block c keeps: its frame decodes to a block whose
// hash is the one it is stored under, whose header and transaction IDs are
// the stored ones, and whose encoding is the frame, byte for byte.
func checkStored(t *testing.T, name string, c *Chain) {
	t.Helper()
	c.mu.RLock()
	stored := maps.Clone(c.blocks)
	c.mu.RUnlock()
	for hash, s := range stored {
		b, ok := c.BlockByHash(hash)
		switch {
		case !ok:
			t.Fatalf("%s: block %s is stored but BlockByHash does not find it", name, hash.Short())
		case b.Hash() != hash || b.Header != s.header:
			t.Errorf("%s: block %s decodes to header %s", name, hash.Short(), b.Hash().Short())
		case !slices.Equal(txIDs(b.Txs), s.ids):
			t.Errorf("%s: block %s: the stored transaction IDs are not the decoded block's", name, hash.Short())
		case !bytes.Equal(b.Encode(), s.frame):
			t.Errorf("%s: block %s: the decoded block does not encode to its stored frame", name, hash.Short())
		}
	}
}

// frameOf returns the frame c keeps for hash.
func frameOf(t *testing.T, c *Chain, hash crypto.Digest) []byte {
	t.Helper()
	s, ok := c.stored(hash)
	if !ok {
		t.Fatalf("block %s is not stored", hash.Short())
	}
	return s.frame
}

// TestStoredFrameRoundTrip: a block enters a chain by mining, gossip
// import, range pull, block-log replay or AddBlock. Whichever way it came,
// the chain keeps its frame and no decoded body, and BlockByHash decodes
// that frame to the block whose hash it is stored under and whose encoding
// it is. On netsim a gossip payload is the sender's own bytes, so both
// followers keep the producer's frame itself: stored frames are shared,
// and nobody writes them.
func TestStoredFrameRoundTrip(t *testing.T) {
	storedType := reflect.TypeOf(storedBlock{})
	for _, body := range []reflect.Type{reflect.TypeOf(Transaction{}), reflect.TypeOf(Block{})} {
		if holdsType(storedType, body, map[reflect.Type]bool{}) {
			t.Fatalf("a stored block can hold a decoded %s", body.Name())
		}
	}

	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 31})
	t.Cleanup(func() { net.Close() })
	names := []string{"producer", "f1", "f2"}
	logPath := filepath.Join(t.TempDir(), "f1.log")
	nodes := make(map[string]*Node)
	for _, name := range names {
		cfg := NodeConfig{Name: name, Chain: testChainConfig(t, alice), Network: net, Peers: names, Mine: name == "producer"}
		if name == "f1" {
			cfg.BlockLog = logPath
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		n.Start()
		nodes[name] = n
	}
	producer := nodes["producer"]
	for i := 0; i < 4; i++ {
		tx, err := NewTransaction(alice, producer.chain.Height(), putCall(fmt.Sprintf("k%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		if err := producer.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, func() bool { _, _, err := producer.chain.Receipt(tx.ID()); return err == nil },
			"the producer never mined its transaction")
	}
	head, height := producer.chain.Head()
	for _, f := range []string{"f1", "f2"} {
		waitFor(t, 10*time.Second, func() bool { h, _ := nodes[f].chain.Head(); return h == head },
			f+" never reached the producer's head")
	}

	joiner, err := NewNode(NodeConfig{Name: "joiner", Chain: testChainConfig(t, alice), Network: net, Peers: []string{"joiner"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Stop)
	if err := joiner.SyncFrom("producer"); err != nil {
		t.Fatal(err)
	}
	if h, _ := joiner.chain.Head(); h != head {
		t.Fatal("the joiner did not pull the producer's chain")
	}

	nodes["f1"].Stop() // closes the block log
	replayed, rep := reopenLog(t, logPath)
	if h, _ := replayed.Head(); h != head || rep.loaded != int(height) {
		t.Fatalf("block log replay loaded %d blocks, want the producer's %d", rep.loaded, height)
	}

	added := NewChain(testChainConfig(t, alice))
	for h := uint64(1); h <= height; h++ {
		b, _ := producer.chain.BlockByHeight(h)
		if err := added.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}

	for name, c := range map[string]*Chain{
		"mined": producer.chain, "gossip f1": nodes["f1"].chain, "gossip f2": nodes["f2"].chain,
		"range pull": joiner.chain, "block log": replayed, "AddBlock": added,
	} {
		if got := c.BestChainHashes(); !slices.Equal(got, producer.chain.BestChainHashes()) {
			t.Fatalf("%s: best chain differs from the producer's", name)
		}
		checkStored(t, name, c)
	}
	for _, hash := range producer.chain.BestChainHashes()[1:] {
		mined := frameOf(t, producer.chain, hash)
		for _, f := range []string{"f1", "f2"} {
			if got := frameOf(t, nodes[f].chain, hash); &got[0] != &mined[0] {
				t.Errorf("%s keeps a copy of block %s, not the frame the producer sent", f, hash.Short())
			}
		}
	}
}

// TestStoredFrameServedByGetRange: bc.getrange serves the encodings of the
// blocks it walks, whether the chain encoded a block (AddBlock) or kept the
// frame it arrived in (gossip), so the response is byte for byte the one
// built from the blocks' own encodings.
func TestStoredFrameServedByGetRange(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 32})
	t.Cleanup(func() { net.Close() })
	n, err := NewNode(NodeConfig{Name: "src", Chain: testChainConfig(t, alice), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	var encodings [][]byte // descending from the head
	parent := n.chain.Genesis()
	for i := 1; i <= 6; i++ {
		b := mineChild(t, n.chain, parent, testTxs(t, alice, i%3)...)
		if i%2 == 0 {
			if err := n.chain.AddBlock(b); err != nil {
				t.Fatal(err)
			}
		} else {
			n.importFrame(inboundBlock{from: "peer", payload: b.Encode()})
		}
		parent = b.Hash()
		encodings = append([][]byte{b.Encode()}, encodings...)
	}
	if h, _ := n.chain.Head(); h != parent {
		t.Fatal("the six blocks are not the best chain")
	}
	raw, err := n.handleGetRange("tester", rangeReq{Cursor: parent, Count: 10}.encode())
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeRangeResp(encodings); !bytes.Equal(raw, want) {
		t.Fatalf("bc.getrange served %d bytes that are not the blocks' encodings (%d bytes)", len(raw), len(want))
	}
}

// TestReorgOntoFramesOnlySideBranch: a side branch is stored as frames
// only, never applied. When a block makes it the longest, the reorganisation
// undoes the best chain's blocks to the fork point, here genesis, and
// applies the branch, decoding its blocks from their frames (receipts appear
// for transactions no block before the switch applied, and the state is a
// fresh chain's on that branch), and the transactions of the abandoned
// blocks, decoded from their frames too, that the branch does not carry go
// back to the pool.
func TestReorgOntoFramesOnlySideBranch(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 33})
	t.Cleanup(func() { net.Close() })
	n, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	c := n.chain
	tx := func(key string) Transaction {
		tx, err := NewTransaction(alice, 1, putCall(key, "v"))
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	lost, both, side := tx("lost"), tx("both"), tx("side")
	for _, tx := range []Transaction{lost, both} {
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	genesis := c.Genesis()
	m1 := mineChild(t, c, genesis, lost, both)
	n.importBlock(framed(m1), "")
	m2 := mineChild(t, c, m1.Hash())
	n.importBlock(framed(m2), "")
	if h, height := c.Head(); h != m2.Hash() || height != 2 || n.Mempool().Len() != 0 {
		t.Fatalf("main branch: head at %d, %d pending; want m2 at 2 and an empty pool", height, n.Mempool().Len())
	}

	// The side branch's first two blocks stay side blocks: s2 ties with m2
	// and is mined until it loses the tie-break.
	s1 := framed(mineChild(t, c, genesis, both))
	n.importBlock(s1, "")
	s2 := mineChild(t, c, s1.hash, side)
	m2Hash := m2.Hash()
	for seed := uint64(1); ; seed++ {
		if h := s2.Hash(); bytes.Compare(h[:], m2Hash[:]) > 0 {
			break
		}
		if !Mine(t.Context(), s2, seed<<32) {
			t.Fatal("mining failed")
		}
	}
	fs2 := framed(s2)
	n.importBlock(fs2, "")
	if h, _ := c.Head(); h != m2.Hash() {
		t.Fatal("a side block took the head before the branch was longer")
	}
	for _, fb := range []framedBlock{s1, fs2} {
		if got := frameOf(t, c, fb.hash); &got[0] != &fb.frame[0] {
			t.Fatalf("side block %d is not kept as the frame it arrived in", fb.Header.Height)
		}
	}
	if _, _, err := c.Receipt(side.ID()); err == nil {
		t.Fatal("a side block was applied before the reorganisation")
	}

	s3 := framed(mineChild(t, c, s2.Hash()))
	n.importBlock(s3, "")
	if h, height := c.Head(); h != s3.hash || height != 3 {
		t.Fatalf("head at %d after the longer side branch, want s3 at 3", height)
	}
	if st := n.Stats(); st.Reorgs != 1 || st.ReorgBlocksUndone != 2 || st.ReorgBlocksApplied != 3 {
		t.Fatalf("%d reorgs undid %d blocks and applied %d; want 1, 2 and 3", st.Reorgs, st.ReorgBlocksUndone, st.ReorgBlocksApplied)
	}
	for _, want := range []struct {
		tx     Transaction
		height uint64
	}{{both, 1}, {side, 2}} {
		if rec, _, err := c.Receipt(want.tx.ID()); err != nil || rec.Height != want.height || !rec.OK {
			t.Fatalf("receipt %+v, %v after the reorganisation; want one at height %d", rec, err, want.height)
		}
	}
	if _, _, err := c.Receipt(lost.ID()); err == nil {
		t.Fatal("the abandoned block's receipt survived the reorganisation")
	}
	if !n.Mempool().Has(lost.ID()) || n.Mempool().Has(both.ID()) || n.Mempool().Len() != 1 {
		t.Fatalf("pool after the reorganisation: lost pending=%v, both pending=%v, %d pending; want true, false, 1",
			n.Mempool().Has(lost.ID()), n.Mempool().Has(both.ID()), n.Mempool().Len())
	}
	fresh := NewChain(testChainConfig(t, alice))
	for _, fb := range []framedBlock{s1, fs2, s3} {
		if err := fresh.AddBlock(fb.Block); err != nil {
			t.Fatal(err)
		}
	}
	if c.StateDigest() != fresh.StateDigest() {
		t.Fatal("the state after the reorganisation is not a fresh chain's on the side branch")
	}
	checkStored(t, "reorganised", c)
}
