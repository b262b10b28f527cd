package xacml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"drams/internal/crypto"
	"drams/internal/wire"
)

// Wire codec of the PEP↔PDP exchange: the payload of an ac.eval call and
// its reply, and the ac.evalBatch envelope around them, built from
// internal/wire's append helpers and strict reader.
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
// A value outside what a request may carry (Value.check: an unknown type, a
// NaN or infinite float, a time outside RFC 3339) is refused as hostile
// input, so every value costs at least two bytes. Every count is checked
// against the bytes left before anything is allocated, a map is pre-sized
// for at most maxSizeHint entries, a varint must be minimal, and trailing
// bytes are an error. A request's strings share one copy of the input when
// DecodeRequest decodes it, so that request may be kept; DecodeRequestInto's
// alias the input, its ID and TraceID included, so its request is valid
// only as long as the caller's buffer and the call that decoded it. A
// result's strings share one copy of the input when DecodeResult decodes
// it, and alias the input when DecodeResultInto does.

// wireVersion tags the binary format; bump on an incompatible layout change.
const wireVersion byte = 0x01

// maxSizeHint caps the map size a declared count may reserve: a hostile
// count must not buy a large allocation before a duplicate key refuses it.
const maxSizeHint = 8

// Encode serialises the request in the binary wire format. It writes every
// value, even one AppendChecked refuses.
func (r *Request) Encode() []byte {
	buf, _ := r.appendTo(make([]byte, 0, 256), false)
	return buf
}

// AppendChecked appends the request's wire encoding to buf, as Encode
// writes it, refusing in the same pass a value outside what a request may
// carry (ErrUnsupportedValue), named by category and attribute. The PEP
// sends only what it accepts and DecodeRequest refuses the same values on
// the wire, so the PEP, the wire, the sealed probe context and the analyser
// agree on one set of values, and every exchange that is decided is one the
// monitor can record. The PEP appends into a pooled buffer.
func (r *Request) AppendChecked(buf []byte) ([]byte, error) { return r.appendTo(buf, true) }

// appendTo is Encode onto buf, and with check AppendChecked.
func (r *Request) appendTo(buf []byte, check bool) ([]byte, error) {
	buf = append(buf, wireVersion)
	buf = wire.AppendStr(buf, r.ID)
	buf = wire.AppendStr(buf, r.TraceID)
	buf = binary.AppendUvarint(buf, uint64(len(r.Attrs)))
	for cat, m := range r.Attrs {
		buf = wire.AppendStr(buf, string(cat))
		buf = binary.AppendUvarint(buf, uint64(len(m)))
		for id, bag := range m {
			buf = wire.AppendStr(buf, string(id))
			buf = binary.AppendUvarint(buf, uint64(len(bag)))
			for _, v := range bag {
				if check {
					if err := v.check(); err != nil {
						return nil, fmt.Errorf("%s/%s: %w", cat, id, err)
					}
				}
				buf = appendValue(buf, v)
			}
		}
	}
	return buf, nil
}

// DecodeRequest parses a binary request into a new request that may be
// kept: its strings share one copy of data.
func DecodeRequest(data []byte) (*Request, error) {
	req := new(Request)
	if err := decodeRequest(req, data, wire.NewCopyReader, false); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeRequestInto parses a binary request into r, reusing the maps and the
// value storage an earlier DecodeRequestInto gave r, for a caller that
// decodes one request per call and keeps none (the PDP's ac.eval handler,
// with r from a pool). Attribute names and string values alias data, so r
// is valid while data is unchanged and until the next decode into r; its ID
// and TraceID get their own bytes. r must be zero or come from NewRequest,
// DecodeRequest or DecodeRequestInto, and nothing else may hold its maps or
// bags. It refuses exactly what DecodeRequest refuses; after an error r's
// content is unspecified.
func DecodeRequestInto(r *Request, data []byte) error {
	return decodeRequest(r, data, wire.NewReader, true)
}

// maxSpareMaps bounds the attribute maps a request keeps for reuse, twice
// the standard categories: a request with more categories makes the rest
// anew on every decode rather than pinning them.
const maxSpareMaps = 8

// decodeRequest is the request decoder behind DecodeRequest and
// DecodeRequestInto; newReader decides whether decoded strings alias data.
// With reuse, the attribute maps the decoder made are kept in req.spare and
// cleared on the next decode into req, and the value slab is sized to the
// values the previous decode held. A fresh request has neither, so it gets
// a map per category and a bag per attribute of its own.
func decodeRequest(req *Request, data []byte, newReader func([]byte) wire.Reader, reuse bool) error {
	rd, err := newWireReader(data, newReader)
	if err != nil {
		return fmt.Errorf("xacml: decode request: %w", err)
	}
	// With DecodeRequestInto the IDs alias the input too: what keeps them
	// past the call (the PDP-side probe's records) clones them.
	req.ID, req.TraceID = rd.Str(), rd.Str()
	for _, m := range req.spare {
		clear(m)
	}
	if cap(req.vals) < req.held {
		req.vals = make([]Value, 0, req.held)
	}
	vals, held := req.vals[:0], 0
	// A category costs at least two bytes (empty name, zero count), an
	// attribute and a value likewise.
	nCats := rd.Count(2)
	if req.Attrs == nil {
		req.Attrs = make(map[Category]map[AttributeID]Bag, min(nCats, maxSizeHint))
	} else {
		clear(req.Attrs)
	}
	for i := 0; i < nCats && rd.Err() == nil; i++ {
		cat := Category(rd.Str())
		nIDs := rd.Count(2)
		var m map[AttributeID]Bag
		if i < len(req.spare) {
			m = req.spare[i]
		} else {
			m = make(map[AttributeID]Bag, min(nIDs, maxSizeHint))
			if reuse && len(req.spare) < maxSpareMaps {
				req.spare = append(req.spare, m)
			}
		}
		for j := 0; j < nIDs && rd.Err() == nil; j++ {
			id := AttributeID(rd.Str())
			var bag Bag
			if n := rd.Count(2); n > 0 {
				held += n
				if k := len(vals); cap(vals)-k >= n {
					vals = vals[:k+n]
					bag = vals[k : k+n : k+n]
				} else {
					bag = make(Bag, n)
				}
				for k := range bag {
					bag[k] = readValue(&rd)
				}
			}
			if _, dup := m[id]; dup {
				rd.Fail(fmt.Errorf("attribute %s/%s twice", cat, id))
			}
			m[id] = bag
		}
		if _, dup := req.Attrs[cat]; dup {
			rd.Fail(fmt.Errorf("category %s twice", cat))
		}
		req.Attrs[cat] = m
	}
	req.held = held
	if err := rd.End(); err != nil {
		return fmt.Errorf("xacml: decode request: %w", err)
	}
	return nil
}

// Encode serialises the result in the binary wire format.
func (res Result) Encode() []byte { return res.AppendEncoded(nil) }

// AppendEncoded appends the result's wire encoding to buf, first making
// room for a result without obligations. The PDP appends into a pooled
// buffer.
func (res Result) AppendEncoded(buf []byte) []byte {
	buf = slices.Grow(buf, 64+len(res.RequestID)+len(res.PolicyID)+len(res.PolicyVersion))
	buf = append(buf, wireVersion)
	buf = wire.AppendStr(buf, res.RequestID)
	buf = append(buf, byte(res.Decision), byte(res.Extended))
	buf = binary.AppendUvarint(buf, uint64(len(res.Obligations)))
	for _, o := range res.Obligations {
		buf = wire.AppendStr(buf, o.ID)
		buf = append(buf, byte(o.FulfillOn))
		buf = binary.AppendUvarint(buf, uint64(len(o.Params)))
		for k, v := range o.Params {
			buf = wire.AppendStr(buf, k)
			buf = wire.AppendStr(buf, v)
		}
	}
	buf = wire.AppendStr(buf, res.PolicyID)
	buf = wire.AppendStr(buf, res.PolicyVersion)
	return append(buf, res.PolicyDigest[:]...)
}

// DecodeResult parses a binary result into one that may be kept: its
// strings share one copy of data.
func DecodeResult(data []byte) (Result, error) {
	var res Result
	if err := decodeResult(&res, data, wire.NewCopyReader); err != nil {
		return Result{}, err
	}
	return res, nil
}

// DecodeResultInto parses a binary result into res with every string
// aliasing data, for a caller that keeps none of them past its use of data
// (the PEP, which reuses the reply's bytes): res is valid while data is
// unchanged. It allocates only for obligations. It refuses exactly what
// DecodeResult refuses; after an error res's content is unspecified.
func DecodeResultInto(res *Result, data []byte) error {
	*res = Result{}
	return decodeResult(res, data, wire.NewReader)
}

// decodeResult is the result decoder behind DecodeResult and
// DecodeResultInto; newReader decides whether decoded strings alias data.
func decodeResult(res *Result, data []byte, newReader func([]byte) wire.Reader) error {
	rd, err := newWireReader(data, newReader)
	if err != nil {
		return fmt.Errorf("xacml: decode result: %w", err)
	}
	res.RequestID, res.Decision, res.Extended = rd.Str(), Decision(rd.U8()), Decision(rd.U8())
	// An obligation costs at least three bytes (empty ID, effect, zero
	// count), a parameter two.
	if n := rd.Count(3); n > 0 {
		res.Obligations = make([]Obligation, n)
		for i := range res.Obligations {
			o := &res.Obligations[i]
			o.ID = rd.Str()
			o.FulfillOn = Effect(rd.U8())
			if np := rd.Count(2); np > 0 {
				o.Params = make(map[string]string, min(np, maxSizeHint))
				for j := 0; j < np && rd.Err() == nil; j++ {
					k, v := rd.Str(), rd.Str()
					if _, dup := o.Params[k]; dup {
						rd.Fail(fmt.Errorf("obligation %s: parameter %s twice", o.ID, k))
					}
					o.Params[k] = v
				}
			}
		}
	}
	res.PolicyID = rd.Str()
	res.PolicyVersion = rd.Str()
	copy(res.PolicyDigest[:], rd.Bytes(crypto.DigestSize))
	if err := rd.End(); err != nil {
		return fmt.Errorf("xacml: decode result: %w", err)
	}
	return nil
}

// The ac.evalBatch envelope carries N encoded requests in one call, and the
// reply answers them positionally (blob = uvarint length + bytes). It has no
// format tag of its own: every item carries one.
//
//	call:  n | n × blob request
//	reply: n | n × (u8 status | blob result, or the error text when status is itemFailed)
//
// A failure is per item, so one bad request cannot poison the rest of the
// batch. Decoded items alias the body; DecodeRequest and DecodeResult copy
// what they keep, and what DecodeRequestInto and DecodeResultInto decode
// aliases it.
const (
	itemOK     byte = 0
	itemFailed byte = 1
)

// EncodeBatch encodes the ac.evalBatch call carrying items.
func EncodeBatch(items [][]byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(items)))
	for _, it := range items {
		buf = wire.AppendBlob(buf, it)
	}
	return buf
}

// DecodeBatch returns the items of an ac.evalBatch call.
func DecodeBatch(data []byte) ([][]byte, error) {
	rd := wire.NewReader(data)
	items := make([][]byte, rd.Count(1))
	for i := range items {
		items[i] = rd.Blob()
	}
	if err := rd.End(); err != nil {
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
			buf = wire.AppendStr(buf, errs[i].Error())
			continue
		}
		buf = append(buf, itemOK)
		buf = wire.AppendBlob(buf, results[i])
	}
	return buf
}

// DecodeBatchReply returns each item's encoded result, or its error.
func DecodeBatchReply(data []byte) (results [][]byte, errs []error, err error) {
	rd := wire.NewReader(data)
	n := rd.Count(2)
	results, errs = make([][]byte, n), make([]error, n)
	for i := 0; i < n && rd.Err() == nil; i++ {
		switch status, b := rd.U8(), rd.Blob(); status {
		case itemOK:
			results[i] = b
		case itemFailed:
			errs[i] = errors.New(string(b))
		default:
			rd.Fail(fmt.Errorf("item %d: status byte 0x%02x", i, status))
		}
	}
	if err := rd.End(); err != nil {
		return nil, nil, fmt.Errorf("xacml: decode batch reply: %w", err)
	}
	return results, errs, nil
}

func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.T))
	switch v.T {
	case TypeString:
		buf = wire.AppendStr(buf, v.S)
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
		// decoder refuses; AppendChecked keeps the PEP from sending one.
		var tm [32]byte
		b, err := v.Tm.AppendBinary(tm[:0])
		if err != nil {
			b = nil
		}
		buf = wire.AppendBlob(buf, b)
	}
	return buf
}

// newWireReader checks a request's or a result's format tag and returns the
// reader newReader makes of data, past the tag.
func newWireReader(data []byte, newReader func([]byte) wire.Reader) (wire.Reader, error) {
	switch {
	case len(data) == 0:
		return wire.Reader{}, errors.New("empty input")
	case data[0] == '{':
		return wire.Reader{}, fmt.Errorf("a JSON body is the retired format; the wire carries binary codec 0x%02x", wireVersion)
	case data[0] != wireVersion:
		return wire.Reader{}, fmt.Errorf("unknown format byte 0x%02x", data[0])
	}
	rd := newReader(data)
	rd.U8() // the tag, checked above
	return rd, nil
}

// readValue reads one value; a value a request may not carry fails the
// reader.
func readValue(rd *wire.Reader) Value {
	v := Value{T: Type(rd.U8())}
	switch v.T {
	case TypeString:
		v.S = rd.Str()
	case TypeInt:
		v.I = rd.Varint()
	case TypeFloat:
		v.F = math.Float64frombits(rd.U64())
	case TypeBool:
		switch b := rd.U8(); b {
		case 0:
		case 1:
			v.B = true
		default:
			rd.Fail(fmt.Errorf("bool byte 0x%02x", b))
		}
	case TypeTime:
		if b := rd.Blob(); rd.Err() == nil {
			if err := v.Tm.UnmarshalBinary(b); err != nil {
				rd.Fail(err)
			}
		}
	}
	if rd.Err() == nil {
		if err := v.check(); err != nil {
			rd.Fail(err)
		}
	}
	return v
}
