package blockchain

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"drams/internal/contract"
	"drams/internal/crypto"
)

func testTx(t testing.TB, name string, seed uint64) Transaction {
	t.Helper()
	id := testIdentity(t, name, byte(seed)+77)
	tx, err := NewTransaction(id, seed, contract.Call{
		Contract: "drams.logmatch", Method: "log",
		Args: json.RawMessage(`{"reqId":"r-1","kind":"pep.request"}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func testBlockForCodec(t testing.TB, txCount int) *Block {
	t.Helper()
	var txs []Transaction
	for i := 0; i < txCount; i++ {
		txs = append(txs, testTx(t, "alice", 6))
	}
	return &Block{
		Header: BlockHeader{
			Height:       7,
			PrevHash:     crypto.Sum([]byte("parent")),
			MerkleRoot:   ComputeMerkleRoot(txs),
			TimeUnixNano: 1712345678901234567,
			Difficulty:   9,
			Nonce:        0xdeadbeefcafe,
			Miner:        "member@tenant-1",
		},
		Txs: txs,
	}
}

// mustJSON is the encoding/json form of a wire struct: the alloc-ratio
// baseline, and hostile '{'-led input for the decoders.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTxBinaryRoundTrip(t *testing.T) {
	tx := testTx(t, "alice", 3)
	enc := EncodeTx(tx)
	if enc[0] != codecVersion {
		t.Fatalf("encoding starts with 0x%02x, want version byte", enc[0])
	}
	got, err := DecodeTx(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tx) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tx)
	}
	if got.ID() != tx.ID() {
		t.Fatal("tx ID changed through encoding")
	}
}

func TestBlockBinaryRoundTrip(t *testing.T) {
	for _, txCount := range []int{0, 1, 5} {
		b := testBlockForCodec(t, txCount)
		enc := b.Encode()
		got, err := DecodeBlock(enc)
		if err != nil {
			t.Fatalf("txCount=%d: %v", txCount, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("txCount=%d round trip mismatch", txCount)
		}
		if got.Hash() != b.Hash() {
			t.Fatalf("txCount=%d: block hash changed", txCount)
		}
	}
}

// Empty optional fields must round-trip without being conflated with
// present-but-empty values the signature covers.
func TestTxRoundTripEmptyFields(t *testing.T) {
	tx := Transaction{From: "x", Call: contract.Call{Contract: "c", Method: "m"}}
	got, err := DecodeTx(EncodeTx(tx))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tx) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tx)
	}
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	valid := testBlockForCodec(t, 2).Encode()
	cases := map[string][]byte{
		"empty":            nil,
		"unknown format":   {0x7f, 1, 2, 3},
		"bare version":     {codecVersion},
		"truncated header": valid[:20],
		"truncated txs":    valid[:len(valid)-5],
		"trailing bytes":   append(append([]byte(nil), valid...), 0),
	}
	// A lying tx count: the count field sits right after the miner string.
	b := testBlockForCodec(t, 2)
	countOff := 1 + 8 + crypto.DigestSize + crypto.DigestSize + 8 + 1 + 8 + 2 + len(b.Header.Miner)
	lying := append([]byte(nil), valid...)
	lying[countOff] = 0xff
	lying[countOff+1] = 0xff
	cases["lying tx count"] = lying

	for name, data := range cases {
		if _, err := DecodeBlock(data); err == nil {
			t.Errorf("%s: block decode accepted hostile input", name)
		}
	}
	// '{' is no format tag: well-formed JSON of the wire structs is refused
	// on the tag byte like any other unknown format, by every decoder.
	const unknownTag = "unknown format byte 0x7b"
	if _, err := DecodeBlock(mustJSON(t, b)); err == nil || !strings.Contains(err.Error(), unknownTag) {
		t.Errorf("JSON block: err = %v, want %q", err, unknownTag)
	}
	if _, err := DecodeTx(mustJSON(t, b.Txs[0])); err == nil || !strings.Contains(err.Error(), unknownTag) {
		t.Errorf("JSON tx: err = %v, want %q", err, unknownTag)
	}
	if _, err := decodeRangeResp([]byte(`{"blocks":[]}`)); err == nil || !strings.Contains(err.Error(), unknownTag) {
		t.Errorf("JSON range response: err = %v, want %q", err, unknownTag)
	}
	validTx := EncodeTx(testTx(t, "alice", 1))
	for name, data := range map[string][]byte{
		"empty":          nil,
		"unknown format": {0x7f, 1, 2, 3},
		"truncated":      validTx[:len(validTx)-3],
		"trailing":       append(append([]byte(nil), validTx...), 0),
	} {
		if _, err := DecodeTx(data); err == nil {
			t.Errorf("%s: tx decode accepted hostile input", name)
		}
	}
}

func TestAppendTxReusesBuffer(t *testing.T) {
	tx := testTx(t, "alice", 1)
	buf := make([]byte, 0, 4096)
	one, err := AppendTx(buf, &tx)
	if err != nil {
		t.Fatal(err)
	}
	if &one[0] != &buf[:1][0] {
		t.Fatal("AppendTx reallocated despite sufficient capacity")
	}
	two, err := AppendTx(one, &tx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(two[:len(one)], two[len(one):]) {
		t.Fatal("consecutive appends differ")
	}
}

// Binary encoding must be meaningfully smaller than JSON for the same tx —
// the wire-bandwidth half of the hot-path win.
func TestBinarySmallerThanJSON(t *testing.T) {
	b := testBlockForCodec(t, 8)
	bin, jsn := len(b.Encode()), len(mustJSON(t, b))
	if bin >= jsn {
		t.Fatalf("binary block (%d bytes) not smaller than JSON (%d bytes)", bin, jsn)
	}
}

func TestRangeRespRoundTrip(t *testing.T) {
	resp := rangeResp{Blocks: [][]byte{
		testBlockForCodec(t, 2).Encode(),
		testBlockForCodec(t, 0).Encode(),
	}}
	got, err := decodeRangeResp(encodeRangeResp(&resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatal("range response round trip mismatch")
	}
}
