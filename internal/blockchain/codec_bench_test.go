package blockchain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"drams/internal/crypto"
)

// Benchmarks for the hot-path codec and for block import. Run with
// -benchmem; the V8 experiment asserts the allocs/op ratios end-to-end, and
// TestCodecAllocBudgets below keeps the budgets honest in the tier-1 suite.
// CI runs every Benchmark(Codec|ApplyBlock|TxID) once per PR so they keep
// compiling and running (.github/workflows/ci.yml, bench smoke).

func BenchmarkCodecTxEncode(b *testing.B) {
	tx := testTx(b, "alice", 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeTx(tx)
	}
}

func BenchmarkCodecTxDecode(b *testing.B) {
	enc := EncodeTx(testTx(b, "alice", 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTx(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecBlockEncode(b *testing.B) {
	blk := testBlockForCodec(b, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = blk.Encode()
	}
}

func BenchmarkCodecBlockDecode(b *testing.B) {
	enc := testBlockForCodec(b, 16).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBlock(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxID derives the ID of a transaction whose args are the size of a
// log record with its sealed payload (1.5 KiB): two framed SHA-256 passes
// over the fields as they are, no encoding step.
func BenchmarkTxID(b *testing.B) {
	tx := testTx(b, "alice", 3)
	tx.Call.Args = append(append([]byte{'"'}, bytes.Repeat([]byte("a"), 1534)...), '"')
	b.ReportAllocs()
	b.SetBytes(int64(len(tx.Call.Args)))
	var id crypto.Digest
	for i := 0; i < b.N; i++ {
		id = tx.ID()
	}
	_ = id
}

func BenchmarkCodecHeaderHash(b *testing.B) {
	blk := testBlockForCodec(b, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = blk.Header.Hash()
	}
}

// BenchmarkApplyBlock imports a prebuilt 32-block chain into a fresh Chain:
// full AddBlock validation (Merkle root, cold signature batch, replay rule)
// plus contract execution, at a small and a large block size (the benchmark
// workloads' blocks hold at most 7 transactions). ns/op is per block.
func BenchmarkApplyBlock(b *testing.B) {
	for _, perBlock := range []int{4, 32} {
		b.Run(fmt.Sprintf("txs=%d", perBlock), func(b *testing.B) {
			alice := testIdentity(b, "alice", 1)
			src := NewChain(testChainConfig(b, alice))
			const length = 32
			txs := testTxs(b, alice, length*perBlock)
			blocks := make([]*Block, length)
			parent := src.Genesis()
			for i := range blocks {
				blocks[i] = mineChild(b, src, parent, txs[i*perBlock:(i+1)*perBlock]...)
				if err := src.AddBlock(blocks[i]); err != nil {
					b.Fatal(err)
				}
				parent = blocks[i].Hash()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%length == 0 {
					b.StopTimer()
					src = NewChain(testChainConfig(b, alice))
					b.StartTimer()
				}
				if err := src.AddBlock(blocks[i%length]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestApplyBlockAllocBudget pins what importing one block of four kv
// transactions allocates on a follower, as BenchmarkApplyBlock/txs=4 runs
// it: validation with a cold verifier, the replay rule and contract
// execution. It cost 125 allocations; 100 once the header is hashed once,
// transaction IDs and Merkle roots allocate nothing, the block's events are
// kept in one slice of their exact size and a verification in flight needs
// no channel. Most of the rest is the kv contract's JSON (about 80). The
// budget leaves room for the race detector and toolchain drift.
func TestApplyBlockAllocBudget(t *testing.T) {
	const perBlock, budget = 4, 110
	alice := testIdentity(t, "alice", 1)
	src := NewChain(testChainConfig(t, alice))
	const length = 32
	txs := testTxs(t, alice, length*perBlock)
	blocks := make([]*Block, length)
	parent := src.Genesis()
	for i := range blocks {
		blocks[i] = mineChild(t, src, parent, txs[i*perBlock:(i+1)*perBlock]...)
		if err := src.AddBlock(blocks[i]); err != nil {
			t.Fatal(err)
		}
		parent = blocks[i].Hash()
	}
	dst := NewChain(testChainConfig(t, alice))
	next := 0
	allocs := testing.AllocsPerRun(length-1, func() { // AllocsPerRun warms up with one extra call
		if err := dst.AddBlock(blocks[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.0f allocs per block", allocs)
	if allocs > budget {
		t.Errorf("importing a block of %d transactions allocates %.0f, budget %d", perBlock, allocs, budget)
	}
}

// TestCodecAllocBudgets pins the allocation budgets of the hot-path codec so
// a regression shows up in the tier-1 suite, not just in benchmark reports:
// encoding is a single exact-size buffer, decoding stays within a handful of
// allocations (string conversions for the identity fields; byte fields alias
// the input), and both sides beat encoding/json on the same structs (the
// baseline the codec replaced) by at least 5x.
func TestCodecAllocBudgets(t *testing.T) {
	tx := testTx(t, "alice", 3)
	blk := testBlockForCodec(t, 16)
	txBin, txJSON := EncodeTx(tx), mustJSON(t, tx)
	blkBin, blkJSON := blk.Encode(), mustJSON(t, blk)

	measure := func(name string, f func()) float64 {
		t.Helper()
		n := testing.AllocsPerRun(200, f)
		t.Logf("%s: %.1f allocs/op", name, n)
		return n
	}

	encTx := measure("EncodeTx/binary", func() { _ = EncodeTx(tx) })
	if encTx > 1 {
		t.Errorf("EncodeTx allocates %.1f/op, budget 1", encTx)
	}
	encBlk := measure("Block.Encode/binary", func() { _ = blk.Encode() })
	if encBlk > 1 {
		t.Errorf("Block.Encode allocates %.1f/op, budget 1", encBlk)
	}
	hash := measure("Header.Hash", func() { _ = blk.Header.Hash() })
	if hash > 0 {
		t.Errorf("Header.Hash allocates %.1f/op, budget 0 (hash input on the stack)", hash)
	}
	// Two framed hashes over the fields in place, each hash state on the
	// stack. (The reflective json.Marshal of the call this replaced cost 5,
	// and hash states on the heap 2.)
	txID := measure("Transaction.ID", func() { _ = tx.ID() })
	if txID > 0 {
		t.Errorf("Transaction.ID allocates %.1f/op, budget 0", txID)
	}

	decTxBin := measure("DecodeTx/binary", func() { _, _ = DecodeTx(txBin) })
	decTxJSON := measure("DecodeTx/json", func() { _ = json.Unmarshal(txJSON, new(Transaction)) })
	if decTxBin > 8 {
		t.Errorf("binary tx decode allocates %.1f/op, budget 8", decTxBin)
	}
	if decTxBin*5 > decTxJSON {
		t.Errorf("binary tx decode (%.1f allocs) is not 5x leaner than JSON (%.1f)", decTxBin, decTxJSON)
	}

	decBlkBin := measure("DecodeBlock/binary", func() { _, _ = DecodeBlock(blkBin) })
	decBlkJSON := measure("DecodeBlock/json", func() { _ = json.Unmarshal(blkJSON, new(Block)) })
	if decBlkBin*5 > decBlkJSON {
		t.Errorf("binary block decode (%.1f allocs) is not 5x leaner than JSON (%.1f)", decBlkBin, decBlkJSON)
	}

	// The wire path pays encode + decode; the round trip must beat JSON by
	// at least 5x (encode alone cannot: JSON marshal is already ~2 allocs
	// and the binary floor is the one output buffer).
	encTxJSONAllocs := measure("EncodeTx/json", func() { _, _ = json.Marshal(tx) })
	if (encTx+decTxBin)*5 > encTxJSONAllocs+decTxJSON {
		t.Errorf("binary tx round trip (%.1f allocs) is not 5x leaner than JSON (%.1f)",
			encTx+decTxBin, encTxJSONAllocs+decTxJSON)
	}
}

// TestImportDerivesEachTxIDOnce pins the other per-import budget: a
// transaction's ID costs two hashes over its fields, args included, and
// import used to pay that seven or more times per transaction (two Merkle
// checks, the verifier's cache lookup, four uses in apply). AddBlock derives
// the IDs once and the chain keeps them, so neither a head extension of any
// size, nor a side-branch block's replay check against its branch, nor a
// reorganisation's replay from genesis derives any again.
func TestImportDerivesEachTxIDOnce(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	src := NewChain(testChainConfig(t, alice))
	txs := testTxs(t, alice, 3+12+2)
	genesis := src.Genesis()
	small := mineChild(t, src, genesis, txs[:3]...)
	if err := src.AddBlock(small); err != nil {
		t.Fatal(err)
	}
	large := mineChild(t, src, small.Hash(), txs[3:15]...)
	if err := src.AddBlock(large); err != nil {
		t.Fatal(err)
	}
	// A sibling branch from genesis that ends up heavier, so one of its
	// imports is a reorganisation.
	forkA := mineChild(t, src, genesis, txs[:2]...)
	if err := src.AddBlock(forkA); err != nil {
		t.Fatal(err)
	}
	forkB := mineChild(t, src, forkA.Hash())
	if err := src.AddBlock(forkB); err != nil {
		t.Fatal(err)
	}
	forkC := mineChild(t, src, forkB.Hash(), txs[2:3]...)
	// Once the fork has taken over, a block on the abandoned branch is
	// checked against that branch's blocks.
	stale := mineChild(t, src, small.Hash(), txs[15:17]...)

	dst := NewChain(testChainConfig(t, alice))
	derived := 0
	count := func() { derived++ } // imports below run on this goroutine only
	testOnTxID.Store(&count)
	defer testOnTxID.Store(nil)
	reorgs := 0
	importing := func(b *Block, what string) {
		t.Helper()
		oldHead, _ := dst.Head()
		derived = 0
		if err := dst.AddBlock(b); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if head, _ := dst.Head(); head == b.Hash() && b.Header.PrevHash != oldHead {
			reorgs++
		}
		if derived != len(b.Txs) {
			t.Errorf("%s: %d ID derivations importing %d transactions", what, derived, len(b.Txs))
		}
	}
	importing(small, "3-tx block")
	importing(large, "12-tx block")
	importing(forkA, "side-branch block (stored, not applied)")
	importing(forkB, "side-branch block at the head's height")
	importing(forkC, "heavier branch tip")
	if head, _ := dst.Head(); head != forkC.Hash() || reorgs == 0 {
		t.Fatalf("the heavier branch did not take over through a reorganisation (%d seen)", reorgs)
	}
	importing(stale, "block on the abandoned branch")
}
