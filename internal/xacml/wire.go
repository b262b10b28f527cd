package xacml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"drams/internal/crypto"
)

// Wire codec of the PEP↔PDP exchange: the payload of an ac.eval call and
// its reply, and the ac.evalBatch envelope around them.
//
// The first byte of a request or a result is a format tag:
//
//	0x01        binary codec v1 (this file)
//
// and decoders reject every other tag. A JSON body (leading '{') is the
// retired format and is refused by name; nothing parses it.
//
// Layouts (str = uvarint length + bytes; n = uvarint count):
//
//	request: 0x01 | str id | str traceID | n categories ×
//	         (str category | n attributes × (str attribute | n values × value))
//	value:   u8 type | string: str | int: zig-zag varint |
//	         float: 8B big-endian IEEE-754 bits | bool: 1 byte (0 or 1) |
//	         time: str time.MarshalBinary (keeps the zone offset)
//	result:  0x01 | str requestID | u8 decision | u8 extended |
//	         n obligations × (str id | u8 fulfillOn | n params × (str key | str value)) |
//	         str policyID | str policyVersion | 32B policyDigest
//
// An attribute present with no values is written with a zero count and
// decoded as present: CanonicalBytes distinguishes it from an absent one.
// A value the sealed probe context cannot hold (Value.check: an unknown
// type, a NaN or infinite float, a time outside RFC 3339) is refused as
// hostile input, so every value costs at least two bytes. Every count is
// checked against the bytes left before anything is allocated, a map is
// pre-sized for at most maxSizeHint entries, and trailing bytes are an
// error. Decoded strings share one copy of the input (a request's IDs get
// their own), so a decoded value never aliases the caller's buffer.

// wireVersion tags the binary format; bump on an incompatible layout change.
const wireVersion byte = 0x01

// maxSizeHint caps the map size a declared count may reserve: a hostile
// count must not buy a large allocation before a duplicate key refuses it.
const maxSizeHint = 8

var errTruncated = errors.New("truncated encoding")

// Encode serialises the request in the binary wire format.
func (r *Request) Encode() []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, wireVersion)
	buf = appendStr(buf, r.ID)
	buf = appendStr(buf, r.TraceID)
	buf = binary.AppendUvarint(buf, uint64(len(r.Attrs)))
	for cat, m := range r.Attrs {
		buf = appendStr(buf, string(cat))
		buf = binary.AppendUvarint(buf, uint64(len(m)))
		for id, bag := range m {
			buf = appendStr(buf, string(id))
			buf = binary.AppendUvarint(buf, uint64(len(bag)))
			for _, v := range bag {
				buf = appendValue(buf, v)
			}
		}
	}
	return buf
}

// DecodeRequest parses a binary request.
func DecodeRequest(data []byte) (*Request, error) {
	rd, err := newWireReader(data)
	if err != nil {
		return nil, fmt.Errorf("xacml: decode request: %w", err)
	}
	// The IDs outlive the request (trace timelines and probe records key on
	// them), so they get their own bytes rather than pinning the whole input.
	req := &Request{ID: strings.Clone(rd.str()), TraceID: strings.Clone(rd.str())}
	// A category costs at least two bytes (empty name, zero count), an
	// attribute and a value likewise.
	nCats := rd.count(2)
	req.Attrs = make(map[Category]map[AttributeID]Bag, min(nCats, maxSizeHint))
	for i := 0; i < nCats && rd.err == nil; i++ {
		cat := Category(rd.str())
		nIDs := rd.count(2)
		m := make(map[AttributeID]Bag, min(nIDs, maxSizeHint))
		for j := 0; j < nIDs && rd.err == nil; j++ {
			id := AttributeID(rd.str())
			var bag Bag
			if n := rd.count(2); n > 0 {
				bag = make(Bag, n)
				for k := range bag {
					bag[k] = rd.value()
				}
			}
			if _, dup := m[id]; dup {
				rd.fail(fmt.Errorf("attribute %s/%s twice", cat, id))
			}
			m[id] = bag
		}
		if _, dup := req.Attrs[cat]; dup {
			rd.fail(fmt.Errorf("category %s twice", cat))
		}
		req.Attrs[cat] = m
	}
	if err := rd.end(); err != nil {
		return nil, fmt.Errorf("xacml: decode request: %w", err)
	}
	return req, nil
}

// Encode serialises the result in the binary wire format.
func (res Result) Encode() []byte {
	buf := make([]byte, 0, 64+len(res.RequestID)+len(res.PolicyID)+len(res.PolicyVersion))
	buf = append(buf, wireVersion)
	buf = appendStr(buf, res.RequestID)
	buf = append(buf, byte(res.Decision), byte(res.Extended))
	buf = binary.AppendUvarint(buf, uint64(len(res.Obligations)))
	for _, o := range res.Obligations {
		buf = appendStr(buf, o.ID)
		buf = append(buf, byte(o.FulfillOn))
		buf = binary.AppendUvarint(buf, uint64(len(o.Params)))
		for k, v := range o.Params {
			buf = appendStr(buf, k)
			buf = appendStr(buf, v)
		}
	}
	buf = appendStr(buf, res.PolicyID)
	buf = appendStr(buf, res.PolicyVersion)
	return append(buf, res.PolicyDigest[:]...)
}

// DecodeResult parses a binary result.
func DecodeResult(data []byte) (Result, error) {
	rd, err := newWireReader(data)
	if err != nil {
		return Result{}, fmt.Errorf("xacml: decode result: %w", err)
	}
	res := Result{RequestID: rd.str(), Decision: Decision(rd.u8()), Extended: Decision(rd.u8())}
	// An obligation costs at least three bytes (empty ID, effect, zero
	// count), a parameter two.
	if n := rd.count(3); n > 0 {
		res.Obligations = make([]Obligation, n)
		for i := range res.Obligations {
			o := &res.Obligations[i]
			o.ID = rd.str()
			o.FulfillOn = Effect(rd.u8())
			if np := rd.count(2); np > 0 {
				o.Params = make(map[string]string, min(np, maxSizeHint))
				for j := 0; j < np && rd.err == nil; j++ {
					k, v := rd.str(), rd.str()
					if _, dup := o.Params[k]; dup {
						rd.fail(fmt.Errorf("obligation %s: parameter %s twice", o.ID, k))
					}
					o.Params[k] = v
				}
			}
		}
	}
	res.PolicyID = rd.str()
	res.PolicyVersion = rd.str()
	copy(res.PolicyDigest[:], rd.bytes(crypto.DigestSize))
	if err := rd.end(); err != nil {
		return Result{}, fmt.Errorf("xacml: decode result: %w", err)
	}
	return res, nil
}

// The ac.evalBatch envelope carries N encoded requests in one call, and the
// reply answers them positionally (blob = uvarint length + bytes). It has no
// format tag of its own: every item carries one.
//
//	call:  n | n × blob request
//	reply: n | n × (u8 status | blob result, or the error text when status is itemFailed)
//
// A failure is per item, so one bad request cannot poison the rest of the
// batch. Decoded items alias the body; the request and result decoders copy
// what they keep.
const (
	itemOK     byte = 0
	itemFailed byte = 1
)

// EncodeBatch encodes the ac.evalBatch call carrying items.
func EncodeBatch(items [][]byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(items)))
	for _, it := range items {
		buf = appendBlob(buf, it)
	}
	return buf
}

// DecodeBatch returns the items of an ac.evalBatch call.
func DecodeBatch(data []byte) ([][]byte, error) {
	rd := wireReader{buf: data}
	items := make([][]byte, rd.count(1))
	for i := range items {
		items[i] = rd.blob()
	}
	if err := rd.end(); err != nil {
		return nil, fmt.Errorf("xacml: decode batch: %w", err)
	}
	return items, nil
}

// EncodeBatchReply encodes item i as results[i], or as errs[i] when that is
// not nil.
func EncodeBatchReply(results [][]byte, errs []error) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(results)))
	for i := range results {
		if errs[i] != nil {
			buf = append(buf, itemFailed)
			buf = appendStr(buf, errs[i].Error())
			continue
		}
		buf = append(buf, itemOK)
		buf = appendBlob(buf, results[i])
	}
	return buf
}

// DecodeBatchReply returns each item's encoded result, or its error.
func DecodeBatchReply(data []byte) (results [][]byte, errs []error, err error) {
	rd := wireReader{buf: data}
	n := rd.count(2)
	results, errs = make([][]byte, n), make([]error, n)
	for i := 0; i < n && rd.err == nil; i++ {
		switch status, b := rd.u8(), rd.blob(); status {
		case itemOK:
			results[i] = b
		case itemFailed:
			errs[i] = errors.New(string(b))
		default:
			rd.fail(fmt.Errorf("item %d: status byte 0x%02x", i, status))
		}
	}
	if err := rd.end(); err != nil {
		return nil, nil, fmt.Errorf("xacml: decode batch reply: %w", err)
	}
	return results, errs, nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBlob(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.T))
	switch v.T {
	case TypeString:
		buf = appendStr(buf, v.S)
	case TypeInt:
		buf = binary.AppendVarint(buf, v.I)
	case TypeFloat:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.F))
	case TypeBool:
		b := byte(0)
		if v.B {
			b = 1
		}
		buf = append(buf, b)
	case TypeTime:
		// A time MarshalBinary cannot write goes out empty, which every
		// decoder refuses; CheckValues keeps the PEP from sending one.
		var tm [32]byte
		b, err := v.Tm.AppendBinary(tm[:0])
		if err != nil {
			b = nil
		}
		buf = appendBlob(buf, b)
	}
	return buf
}

// wireReader walks a binary encoding with bounds checks. The first error
// sticks: every later read returns a zero value, so a decoder reads its
// whole layout and checks once, at end. The batch envelope has no tag and
// reads only blobs, so it uses a bare wireReader{buf: data}.
type wireReader struct {
	buf []byte
	s   string // one copy of buf; decoded strings are substrings of it
	off int
	err error
}

func newWireReader(data []byte) (wireReader, error) {
	switch {
	case len(data) == 0:
		return wireReader{}, errors.New("empty input")
	case data[0] == '{':
		return wireReader{}, fmt.Errorf("a JSON body is the retired format; the wire carries binary codec 0x%02x", wireVersion)
	case data[0] != wireVersion:
		return wireReader{}, fmt.Errorf("unknown format byte 0x%02x", data[0])
	}
	return wireReader{buf: data, s: string(data), off: 1}, nil
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// end reports the first error, or trailing bytes after a complete layout.
func (r *wireReader) end() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

func (r *wireReader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// bytes returns the next n bytes of the input (nil after an error).
func (r *wireReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.off {
		r.fail(errTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

// count reads a declared count of items that each take at least min bytes,
// and refuses one the bytes left cannot hold.
func (r *wireReader) count(min int) int {
	n := r.uvarint()
	if left := len(r.buf) - r.off; r.err == nil && n > uint64(left/min) {
		r.fail(fmt.Errorf("declared count %d exceeds the %d bytes left", n, left))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// span reads a length prefix and returns the bounds of the bytes it
// covers; a length beyond the input is truncation.
func (r *wireReader) span() (int, int) {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.fail(errTruncated)
	}
	if r.err != nil {
		return 0, 0
	}
	start := r.off
	r.off += int(n)
	return start, r.off
}

func (r *wireReader) str() string {
	i, j := r.span()
	return r.s[i:j]
}

// blob reads a length-prefixed byte string, aliasing the input.
func (r *wireReader) blob() []byte {
	i, j := r.span()
	return r.buf[i:j:j]
}

func (r *wireReader) value() Value {
	v := Value{T: Type(r.u8())}
	switch v.T {
	case TypeString:
		v.S = r.str()
	case TypeInt:
		v.I = r.varint()
	case TypeFloat:
		if b := r.bytes(8); b != nil {
			v.F = math.Float64frombits(binary.BigEndian.Uint64(b))
		}
	case TypeBool:
		switch b := r.u8(); b {
		case 0:
		case 1:
			v.B = true
		default:
			r.fail(fmt.Errorf("bool byte 0x%02x", b))
		}
	case TypeTime:
		if b := r.blob(); r.err == nil {
			if err := v.Tm.UnmarshalBinary(b); err != nil {
				r.fail(err)
			}
		}
	}
	if r.err == nil {
		if err := v.check(); err != nil {
			r.fail(err)
		}
	}
	return v
}
