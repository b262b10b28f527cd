package blockchain

import (
	"bytes"
	"testing"
)

// Fuzzing the wire decoders: arbitrary bytes must never panic, and every
// accepted input must re-encode/re-decode to the same value (the decoder and
// encoder agree on one canonical binary form). The JSON seeds are hostile
// input: '{' is not a format tag, so they must be refused, not parsed. Call
// args are opaque to the chain, so a transaction whose args are not JSON is
// accepted input like any other: its ID, and the Merkle root of a block
// holding it, must derive without panicking.

// hostileArgs are call args no JSON parser accepts.
var hostileArgs = [][]byte{
	[]byte("{"),
	[]byte(`{"reqId":`),
	{0x00, 0xff, 0xfe, 0x80},
	[]byte("\"unterminated"),
	bytes.Repeat([]byte("["), 4096),
}

func FuzzDecodeTx(f *testing.F) {
	tx := testTx(f, "alice", 3)
	f.Add(EncodeTx(tx))
	f.Add(mustJSON(f, tx))
	for _, args := range hostileArgs {
		tx.Call.Args = args
		f.Add(EncodeTx(tx))
	}
	f.Add([]byte{codecVersion})
	f.Add([]byte("{"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTx(data)
		if err != nil {
			return
		}
		re, err := AppendTx(nil, &got)
		if err != nil {
			t.Fatalf("re-encode of accepted tx failed: %v", err)
		}
		back, err := DecodeTx(re)
		if err != nil {
			t.Fatalf("re-decode of accepted tx failed: %v", err)
		}
		re2, err := AppendTx(nil, &back)
		if err != nil {
			t.Fatalf("re-encode of canonical tx failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("tx encoding not stable:\n got %x\nwant %x", re2, re)
		}
		if back.ID() != got.ID() {
			t.Fatal("tx ID changed through canonical re-encode")
		}
	})
}

func FuzzDecodeBlock(f *testing.F) {
	for _, n := range []int{0, 2} {
		b := testBlockForCodec(f, n)
		f.Add(b.Encode())
		f.Add(mustJSON(f, b))
		for i := range b.Txs {
			b.Txs[i].Call.Args = hostileArgs[i%len(hostileArgs)]
		}
		f.Add(b.Encode())
	}
	f.Add([]byte{codecVersion, 1, 2, 3})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeBlock(data)
		if err != nil {
			return
		}
		re, err := AppendBlock(nil, got)
		if err != nil {
			return
		}
		back, err := DecodeBlock(re)
		if err != nil {
			t.Fatalf("re-decode of accepted block failed: %v", err)
		}
		if back.Hash() != got.Hash() {
			t.Fatal("block hash changed through canonical re-encode")
		}
		if ComputeMerkleRoot(back.Txs) != ComputeMerkleRoot(got.Txs) {
			t.Fatal("merkle root changed through canonical re-encode")
		}
		if !bytes.Equal(re, func() []byte { b, _ := AppendBlock(nil, back); return b }()) {
			t.Fatal("binary encoding not stable")
		}
	})
}

func FuzzDecodeRangeResp(f *testing.F) {
	resp := rangeResp{Blocks: [][]byte{testBlockForCodec(f, 1).Encode()}}
	f.Add(encodeRangeResp(&resp))
	f.Add([]byte(`{"blocks":[]}`))
	f.Add([]byte{codecVersion, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeRangeResp(data)
		if err != nil {
			return
		}
		back, err := decodeRangeResp(encodeRangeResp(&got))
		if err != nil {
			t.Fatalf("re-decode of accepted range response failed: %v", err)
		}
		if len(back.Blocks) != len(got.Blocks) {
			t.Fatal("range response not canonical")
		}
	})
}
