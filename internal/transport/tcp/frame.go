package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frame types on the wire.
const (
	fMsg     byte = 1 // one-way message
	fCall    byte = 2 // request expecting a reply
	fReply   byte = 3 // reply to a call (Err set on handler failure)
	fHello   byte = 4 // handshake: From = node id, Payload = JSON hello body
	fAddrAdd byte = 5 // a logical address appeared on the sending node (Kind = addr, Corr = its change's number)
	fAddrDel byte = 6 // a logical address left the sending node (Kind = addr, Corr = its change's number)
)

// maxFrame bounds a single frame (header + body) to keep a misbehaving peer
// from ballooning memory.
const maxFrame = 32 << 20

// frame is the unit of the length-prefixed wire protocol:
//
//	u32 big-endian frame length (excluding itself), then
//	u8 type | u64 corr | str from | str to | str kind | str err | blob payload
//
// where str is u16 length + bytes and blob is u32 length + bytes.
type frame struct {
	typ     byte
	corr    uint64
	from    string
	to      string
	kind    string
	errStr  string
	payload []byte
}

func (f *frame) encodedLen() int {
	return 1 + 8 + 2 + len(f.from) + 2 + len(f.to) + 2 + len(f.kind) + 2 + len(f.errStr) + 4 + len(f.payload)
}

// appendFrame serializes f (with its length prefix) onto buf.
func appendFrame(buf []byte, f *frame) ([]byte, error) {
	n := f.encodedLen()
	if n > maxFrame {
		return buf, fmt.Errorf("tcp: frame too large (%d bytes)", n)
	}
	for _, s := range []string{f.from, f.to, f.kind, f.errStr} {
		if len(s) > math.MaxUint16 {
			return buf, fmt.Errorf("tcp: frame string field too long (%d bytes)", len(s))
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, f.typ)
	buf = binary.BigEndian.AppendUint64(buf, f.corr)
	appendStr := func(s string) {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	appendStr(f.from)
	appendStr(f.to)
	appendStr(f.kind)
	appendStr(f.errStr)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.payload)))
	buf = append(buf, f.payload...)
	return buf, nil
}

// readFrame reads one length-prefixed frame.
func readFrame(r *bufio.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 1+8+2+2+2+2+4 || n > maxFrame {
		return frame{}, fmt.Errorf("tcp: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	var f frame
	f.typ = body[0]
	f.corr = binary.BigEndian.Uint64(body[1:9])
	off := 9
	readStr := func() (string, error) {
		if off+2 > len(body) {
			return "", fmt.Errorf("tcp: truncated frame")
		}
		l := int(binary.BigEndian.Uint16(body[off : off+2]))
		off += 2
		if off+l > len(body) {
			return "", fmt.Errorf("tcp: truncated frame")
		}
		s := string(body[off : off+l])
		off += l
		return s, nil
	}
	var err error
	if f.from, err = readStr(); err != nil {
		return frame{}, err
	}
	if f.to, err = readStr(); err != nil {
		return frame{}, err
	}
	if f.kind, err = readStr(); err != nil {
		return frame{}, err
	}
	if f.errStr, err = readStr(); err != nil {
		return frame{}, err
	}
	if off+4 > len(body) {
		return frame{}, fmt.Errorf("tcp: truncated frame")
	}
	pl := int(binary.BigEndian.Uint32(body[off : off+4]))
	off += 4
	if off+pl != len(body) {
		return frame{}, fmt.Errorf("tcp: frame payload length mismatch")
	}
	if pl > 0 {
		f.payload = body[off : off+pl]
	}
	return f, nil
}
