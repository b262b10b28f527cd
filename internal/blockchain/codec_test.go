package blockchain

import (
	"bytes"
	"encoding/binary"
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

// appendBlockV4 encodes b in the fixed-width framing of codec version 0x04
// (u16 string and u32 blob lengths, a u32 transaction count), the blocks a
// block log of an older build holds.
func appendBlockV4(b *Block) []byte {
	str16 := func(buf []byte, s string) []byte {
		return append(binary.BigEndian.AppendUint16(buf, uint16(len(s))), s...)
	}
	blob32 := func(buf, p []byte) []byte { return append(binary.BigEndian.AppendUint32(buf, uint32(len(p))), p...) }
	buf := str16(b.Header.appendFixed([]byte{0x04}), b.Header.Miner)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		buf = str16(buf, tx.From)
		buf = append(buf, tx.Salt[:]...)
		buf = binary.BigEndian.AppendUint64(buf, tx.ExpiresAt)
		buf = str16(buf, tx.Call.Contract)
		buf = str16(buf, tx.Call.Method)
		buf = blob32(buf, tx.Call.Args)
		buf = blob32(buf, tx.PubKey)
		buf = blob32(buf, tx.Signature)
	}
	return buf
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
	// The miner's one-byte length sits after the fixed-width header fields,
	// the transaction count right after the miner string.
	b := testBlockForCodec(t, 2)
	minerOff := 1 + headerNonceAt + 8
	countOff := minerOff + 1 + len(b.Header.Miner)
	splice := func(off, n int, with ...byte) []byte {
		return append(append(append([]byte(nil), valid[:off]...), with...), valid[off+n:]...)
	}
	cases["lying tx count"] = splice(countOff, 2, 0xff, 0xff)
	// A count the bytes left cannot hold, minimally encoded.
	cases["lying uvarint count"] = splice(countOff, 1, binary.AppendUvarint(nil, 1<<20)...)
	// The miner's length as two bytes where one holds it.
	cases["non-minimal uvarint length"] = splice(minerOff, 1, byte(len(b.Header.Miner))|0x80, 0x00)

	for name, data := range cases {
		if _, err := DecodeBlock(data); err == nil {
			t.Errorf("%s: block decode accepted hostile input", name)
		}
	}
	// A block of the fixed-width framing (tag 0x04) is refused by name.
	const older = "unknown format byte 0x04, an older build's"
	if _, err := DecodeBlock(appendBlockV4(b)); err == nil || !strings.Contains(err.Error(), older) {
		t.Errorf("0x04 block: err = %v, want %q", err, older)
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
	one := AppendTx(buf, &tx)
	if &one[0] != &buf[:1][0] {
		t.Fatal("AppendTx reallocated despite sufficient capacity")
	}
	two := AppendTx(one, &tx)
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
	resp := [][]byte{
		testBlockForCodec(t, 2).Encode(),
		testBlockForCodec(t, 0).Encode(),
	}
	got, err := decodeRangeResp(encodeRangeResp(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatal("range response round trip mismatch")
	}
}

// A transaction's ID and a block's hash derive from their fields, not from
// their frames: both values were the same under the fixed-width framing of
// 0x04, whose encodings of the two were 464 and 571 bytes.
func TestIdentityDoesNotDependOnFraming(t *testing.T) {
	tx := Transaction{From: "li@tenant-1", Salt: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}, ExpiresAt: 1030,
		Call:   contract.Call{Contract: "drams.logmatch", Method: "logbatch", Args: bytes.Repeat([]byte{0xa5}, 300)},
		PubKey: bytes.Repeat([]byte{0x11}, 32), Signature: bytes.Repeat([]byte{0x22}, 64)}
	b := &Block{Header: BlockHeader{Height: 7, PrevHash: crypto.Sum([]byte("parent")), TimeUnixNano: 1712345678901234567,
		Difficulty: 9, Nonce: 0xdeadbeefcafe, Miner: "node@cloud-1"}, Txs: []Transaction{tx}}
	b.Header.MerkleRoot = ComputeMerkleRoot(b.Txs)
	const (
		wantID   = "96571d0106501b25946c1413f1566958a5785a1208ea9b2c6b7a20375c5ff155"
		wantHash = "45e5e04b7017ec470241feba8434e9c613338f71aea7da3204c01136ca678b82"
	)
	if id := tx.ID().String(); id != wantID {
		t.Errorf("tx ID %s, want %s", id, wantID)
	}
	if hash := b.Hash().String(); hash != wantHash {
		t.Errorf("block hash %s, want %s", hash, wantHash)
	}
	if tn, bn := len(EncodeTx(tx)), len(b.Encode()); tn != 453 || bn != 556 {
		t.Errorf("encodings of %d and %d bytes, want 453 and 556", tn, bn)
	}
}
