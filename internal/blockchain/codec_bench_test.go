package blockchain

import (
	"encoding/json"
	"testing"
)

// Benchmarks for the hot-path codec. Run with -benchmem; the V8 experiment
// asserts the allocs/op ratios end-to-end, and TestCodecAllocBudgets below
// keeps the budgets honest in the tier-1 suite.

func BenchmarkTxEncodeBinary(b *testing.B) {
	tx := testTx(b, "alice", 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeTx(tx)
	}
}

func BenchmarkTxDecodeBinary(b *testing.B) {
	enc := EncodeTx(testTx(b, "alice", 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTx(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockEncodeBinary(b *testing.B) {
	blk := testBlockForCodec(b, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = blk.Encode()
	}
}

func BenchmarkBlockDecodeBinary(b *testing.B) {
	enc := testBlockForCodec(b, 16).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBlock(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeaderHash(b *testing.B) {
	blk := testBlockForCodec(b, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = blk.Header.Hash()
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
	if hash > 2 {
		t.Errorf("Header.Hash allocates %.1f/op, budget 2 (pooled scratch)", hash)
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
