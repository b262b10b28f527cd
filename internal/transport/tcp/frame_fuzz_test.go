package tcp

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it must
// reject or accept without panicking, and a frame it accepts must re-encode
// to the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	seed, err := appendFrame(nil, &frame{
		typ: fCall, corr: 7, from: "node-a", to: "node-b", kind: "bc.block",
		payload: []byte{0x01, 0xff, 0x00},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		re, err := appendFrame(nil, &got)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if read := data[:min(len(data), len(re))]; !bytes.Equal(re, read) {
			t.Fatalf("accepted frame does not re-encode to its input:\n got %x\nwant %x", re, read)
		}
	})
}

// FuzzDecodeHello feeds arbitrary bytes to the hello decoder, which reads
// any peer's handshake: no panic, and a hello it accepts re-encodes to its
// input.
func FuzzDecodeHello(f *testing.F) {
	f.Add(appendHello(nil, 1<<60, []string{"node@tenant-1", "pep@tenant-1"}))
	f.Add(appendHello(nil, 0, nil))
	f.Add([]byte(`{"node":"127.0.0.1:1","addrs":["a"],"gen":3}`))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, addrs, err := decodeHello(data)
		if err != nil {
			return
		}
		if re := appendHello(nil, gen, addrs); !bytes.Equal(re, data) {
			t.Fatalf("accepted hello does not re-encode to its input:\n got %x\nwant %x", re, data)
		}
	})
}

// FuzzFrameRoundTrip drives the encoder with arbitrary field values; every
// encodable frame must read back identical.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(1), uint64(0), "a", "b", "kind", "", []byte("payload"))
	f.Add(byte(3), uint64(1<<40), "", "", "", "boom", []byte(nil))
	f.Fuzz(func(t *testing.T, typ byte, corr uint64, from, to, kind, errStr string, payload []byte) {
		in := frame{typ: typ, corr: corr, from: from, to: to, kind: kind, errStr: errStr, payload: payload}
		enc, err := appendFrame(nil, &in)
		if err != nil {
			return // oversize fields are rejected, not encoded
		}
		got, err := readFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		samePayload := bytes.Equal(got.payload, in.payload)
		if got.typ != in.typ || got.corr != in.corr || got.from != in.from ||
			got.to != in.to || got.kind != in.kind || got.errStr != in.errStr || !samePayload {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, in)
		}
	})
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	in := frame{typ: fMsg, corr: 42, from: "node@tenant-1", to: "node@infrastructure",
		kind: "bc.block", payload: make([]byte, 512)}
	enc, err := appendFrame(nil, &in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	buf := make([]byte, 0, len(enc))
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		if buf, err = appendFrame(buf, &in); err != nil {
			b.Fatal(err)
		}
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(buf))); err != nil {
			b.Fatal(err)
		}
	}
}
