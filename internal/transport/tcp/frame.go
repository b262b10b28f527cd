package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"drams/internal/wire"
)

// Frame types on the wire.
const (
	fMsg   byte = 1 // one-way message
	fCall  byte = 2 // request expecting a reply
	fReply byte = 3 // reply to a call (errStr set on handler failure)
	fHello byte = 4 // the sender's routing table: from = its node id, payload = hello body
)

// maxFrame bounds a single frame (header + body) to keep a misbehaving peer
// from ballooning memory.
const maxFrame = 32 << 20

// frame is the unit of the length-prefixed wire protocol:
//
//	u32 big-endian body length (excluding itself), then the body:
//	u8 type | u64 corr | str from | str to | str kind | str err | blob payload
//
// where str and blob are internal/wire's: a uvarint length, then the bytes.
// The body is read whole, and a read frame's strings and payload alias it:
// reading a frame allocates its body and nothing else.
type frame struct {
	typ     byte
	corr    uint64
	from    string
	to      string
	kind    string
	errStr  string
	payload []byte
}

// minFrameBody is the size of a body whose strings and payload are empty.
const minFrameBody = 1 + 8 + 5

func (f *frame) encodedLen() int {
	return 1 + 8 + wire.StrLen(len(f.from)) + wire.StrLen(len(f.to)) + wire.StrLen(len(f.kind)) +
		wire.StrLen(len(f.errStr)) + wire.StrLen(len(f.payload))
}

// appendFrame serializes f (with its length prefix) onto buf.
func appendFrame(buf []byte, f *frame) ([]byte, error) {
	n := f.encodedLen()
	if n > maxFrame {
		return buf, fmt.Errorf("tcp: frame too large (%d bytes)", n)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, f.typ)
	buf = binary.BigEndian.AppendUint64(buf, f.corr)
	buf = wire.AppendStr(buf, f.from)
	buf = wire.AppendStr(buf, f.to)
	buf = wire.AppendStr(buf, f.kind)
	buf = wire.AppendStr(buf, f.errStr)
	return wire.AppendBlob(buf, f.payload), nil
}

// readFrame reads one length-prefixed frame.
func readFrame(r *bufio.Reader) (frame, error) {
	prefix, err := r.Peek(4)
	if err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n < minFrameBody || n > maxFrame {
		return frame{}, fmt.Errorf("tcp: bad frame length %d", n)
	}
	r.Discard(4) // cannot fail: Peek holds the 4 bytes
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	rd := wire.NewReader(body)
	var f frame
	f.typ = rd.U8()
	f.corr = rd.U64()
	f.from = rd.Str()
	f.to = rd.Str()
	f.kind = rd.Str()
	f.errStr = rd.Str()
	f.payload = rd.Blob()
	if err := rd.End(); err != nil {
		return frame{}, fmt.Errorf("tcp: bad frame: %w", err)
	}
	return f, nil
}

// maxHelloAddrs bounds the addresses a hello may list, far above what one
// process hosts, so that a hostile count cannot make the decoder allocate
// many times the frame it read.
const maxHelloAddrs = 1 << 16

// appendHello serializes a hello body: the sender's routing table, read at
// its change numbered gen.
//
//	u64 gen | uvarint count | str addr...
func appendHello(buf []byte, gen uint64, addrs []string) []byte {
	buf = binary.BigEndian.AppendUint64(buf, gen)
	buf = binary.AppendUvarint(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = wire.AppendStr(buf, a)
	}
	return buf
}

// decodeHello parses a hello body. The addresses alias body.
func decodeHello(body []byte) (gen uint64, addrs []string, err error) {
	r := wire.NewReader(body)
	gen = r.U64()
	n := r.Count(1)
	if n > maxHelloAddrs {
		return 0, nil, fmt.Errorf("tcp: hello lists %d addresses, at most %d", n, maxHelloAddrs)
	}
	addrs = make([]string, n)
	for i := range addrs {
		addrs[i] = r.Str()
	}
	if err := r.End(); err != nil {
		return 0, nil, fmt.Errorf("tcp: bad hello: %w", err)
	}
	return gen, addrs, nil
}
