package blockchain

import (
	"bytes"
	"testing"

	"drams/internal/crypto"
)

// Fuzzing the wire decoders: arbitrary bytes must never panic, and every
// accepted input must re-encode to the same bytes (the reader is canonical,
// so decoder and encoder agree on one binary form). The JSON seeds are hostile
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
		if re := EncodeTx(got); !bytes.Equal(re, data) {
			t.Fatalf("accepted tx does not re-encode to its input:\n got %x\nwant %x", re, data)
		}
		_ = got.ID()
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
		if re := got.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted block does not re-encode to its input:\n got %x\nwant %x", re, data)
		}
		_ = got.Hash()
		_ = ComputeMerkleRoot(got.Txs)
	})
}

func FuzzDecodeRangeResp(f *testing.F) {
	f.Add(encodeRangeResp([][]byte{testBlockForCodec(f, 1).Encode()}))
	f.Add([]byte(`{"blocks":[]}`))
	f.Add([]byte{codecVersion, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeRangeResp(data)
		if err != nil {
			return
		}
		if re := encodeRangeResp(got); !bytes.Equal(re, data) {
			t.Fatalf("accepted range response does not re-encode to its input:\n got %x\nwant %x", re, data)
		}
	})
}

// FuzzDecodeSyncMessage feeds arbitrary bytes to the decoders of the two
// catch-up messages a node reads from any peer, the bc.getrange request and
// the bc.head reply: no panic, and whatever is accepted re-encodes to its
// input.
func FuzzDecodeSyncMessage(f *testing.F) {
	f.Add(rangeReq{Cursor: crypto.Sum([]byte("cursor")), Count: 128}.encode())
	f.Add(headInfo{Hash: crypto.Sum([]byte("head")), Height: 9}.encode())
	f.Add([]byte(`{"cursor":"00","count":4}`))
	f.Add([]byte{codecVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := decodeRangeReq(data); err == nil {
			if re := q.encode(); !bytes.Equal(re, data) {
				t.Fatalf("accepted range request does not re-encode to its input:\n got %x\nwant %x", re, data)
			}
		}
		if hi, err := decodeHeadInfo(data); err == nil {
			if re := hi.encode(); !bytes.Equal(re, data) {
				t.Fatalf("accepted head reply does not re-encode to its input:\n got %x\nwant %x", re, data)
			}
		}
	})
}
