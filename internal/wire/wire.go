// Package wire holds the pieces every binary layout members exchange or
// keep on chain is built from: append helpers for length-prefixed strings
// and blobs, and a strict reader. The PEP↔PDP codec (xacml/wire.go), the
// probe record codec (core/record.go), the transaction, block and catch-up
// codec (blockchain/codec.go) and the TCP frame and hello
// (transport/tcp/frame.go) all use it; fixed-width fields (heights, times,
// digests, the TCP frame's u32 length) are written beside them as they are.
//
// str and blob are a uvarint length followed by the bytes; counts are
// uvarints. The reader is canonical: a varint must be minimal, a declared
// count must fit in the bytes left, and trailing bytes are an error. A layout
// built on it that writes its fields in one order therefore re-encodes an
// accepted input to the same bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

// ErrTruncated reports an input that ends inside a field.
var ErrTruncated = errors.New("truncated encoding")

// AppendStr appends s as a str: uvarint length, then the bytes.
func AppendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBlob appends b as a blob: uvarint length, then the bytes.
func AppendBlob(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// UvarintLen is the encoded size of x as a uvarint.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// StrLen is the encoded size of a str or blob of n bytes.
func StrLen(n int) int { return UvarintLen(uint64(n)) + n }

// Reader walks a binary encoding with bounds checks. The first error sticks:
// every later read returns a zero value, so a decoder reads its whole layout
// and checks once, with End.
type Reader struct {
	buf []byte
	s   string // the input as a string; decoded strings are substrings of it
	off int
	err error
}

// NewReader reads data in place: decoded strings and blobs alias it. The
// caller hands over bytes nobody mutates afterwards, and gives a decoded
// string that outlives the input its own copy (strings.Clone), so that it
// does not pin the whole input.
func NewReader(data []byte) Reader {
	r := Reader{buf: data}
	if len(data) > 0 {
		r.s = unsafe.String(&data[0], len(data))
	}
	return r
}

// NewCopyReader makes one copy of data as a string: decoded strings are
// substrings of that copy and never alias the caller's buffer. Blobs still
// alias data.
func NewCopyReader(data []byte) Reader {
	return Reader{buf: data, s: string(data)}
}

// Fail records err unless an earlier error is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err reports the first error so far.
func (r *Reader) Err() error { return r.err }

// Len is the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// End reports the first error, or trailing bytes after a complete layout.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.Bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a fixed 8-byte big-endian integer.
func (r *Reader) U64() uint64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bytes returns the next n bytes of the input, aliasing it (nil after an
// error).
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.Fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// varint checks the n-byte varint at the read offset, as binary.Uvarint or
// binary.Varint measured it, and moves past it. A truncated, overflowing or
// non-minimal encoding fails the reader.
func (r *Reader) varint(n int) bool {
	switch {
	case n == 0:
		r.Fail(ErrTruncated)
	case n < 0:
		r.Fail(errors.New("varint overflows 64 bits"))
	case n > 1 && r.buf[r.off+n-1] == 0:
		// A zero last byte adds no bits: the value fits in fewer bytes.
		r.Fail(errors.New("non-minimal varint"))
	default:
		r.off += n
		return true
	}
	return false
}

// Uvarint reads a minimally encoded uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		// One byte, the common case of a length or a count: minimal.
		r.off++
		return uint64(r.buf[r.off-1])
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if !r.varint(n) {
		return 0
	}
	return v
}

// Varint reads a minimally encoded zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if !r.varint(n) {
		return 0
	}
	return v
}

// Count reads a declared count of items that each take at least min bytes,
// and refuses one the bytes left cannot hold.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if left := len(r.buf) - r.off; r.err == nil && n > uint64(left/min) {
		r.Fail(fmt.Errorf("declared count %d exceeds the %d bytes left", n, left))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// span reads a length prefix and returns the bounds of the bytes it covers;
// a length beyond the input is truncation.
func (r *Reader) span() (int, int) {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.Fail(ErrTruncated)
	}
	if r.err != nil {
		return 0, 0
	}
	start := r.off
	r.off += int(n)
	return start, r.off
}

// Str reads a str.
func (r *Reader) Str() string {
	i, j := r.span()
	return r.s[i:j]
}

// Blob reads a blob, aliasing the input (nil when empty, so an absent
// optional field round-trips as nil).
func (r *Reader) Blob() []byte {
	i, j := r.span()
	if i == j {
		return nil
	}
	return r.buf[i:j:j]
}
