package xacml

import (
	"bytes"
	"errors"
	"slices"

	"drams/internal/crypto"
)

// Category is an XACML attribute category.
type Category string

// The four standard categories.
const (
	CatSubject     Category = "subject"
	CatResource    Category = "resource"
	CatAction      Category = "action"
	CatEnvironment Category = "environment"
)

// Categories lists the standard categories in canonical order.
func Categories() []Category {
	return []Category{CatSubject, CatResource, CatAction, CatEnvironment}
}

// AttributeID names an attribute within a category (e.g. "role", "owner").
type AttributeID string

// Request is an access request: attribute bags grouped by category.
type Request struct {
	// ID correlates the request across PEP, PDP, logs and monitor checks.
	ID string
	// TraceID is the end-to-end tracing identifier minted at the PEP and
	// propagated through wire calls, probe records and analyser events. It
	// is observability metadata: excluded (like ID) from CanonicalBytes,
	// so it never perturbs content digests or M1 matching. Empty when
	// tracing is off or the request predates it.
	TraceID string
	// Attrs holds the attribute bags. A request has no JSON form: the
	// PEP↔PDP wire and the sealed probe context both carry Encode (wire.go).
	Attrs map[Category]map[AttributeID]Bag

	// vals is DecodeRequestInto's value slab: the bags it decodes are
	// windows of it, so a reused request decodes without allocating. held
	// is how many values the last decode into the request read, which the
	// next sizes the slab to, and spare holds the attribute maps the decodes
	// made, which the next clears and fills again.
	vals  []Value
	held  int
	spare []map[AttributeID]Bag
}

// NewRequest returns an empty request with the given correlation ID.
func NewRequest(id string) *Request {
	return &Request{ID: id, Attrs: make(map[Category]map[AttributeID]Bag)}
}

// Add appends a value to the (category, attribute) bag and returns the
// request for chaining.
func (r *Request) Add(cat Category, id AttributeID, v Value) *Request {
	m, ok := r.Attrs[cat]
	if !ok {
		m = make(map[AttributeID]Bag)
		r.Attrs[cat] = m
	}
	m[id] = append(m[id], v)
	return r
}

// Get returns the bag for (category, attribute); empty if absent.
func (r *Request) Get(cat Category, id AttributeID) Bag {
	if m, ok := r.Attrs[cat]; ok {
		return m[id]
	}
	return nil
}

// Clone deep-copies the request. An attribute or a category that is present
// but empty stays present: CanonicalBytes tells it from an absent one.
func (r *Request) Clone() *Request {
	out := &Request{ID: r.ID, TraceID: r.TraceID, Attrs: make(map[Category]map[AttributeID]Bag, len(r.Attrs))}
	for cat, m := range r.Attrs {
		cm := make(map[AttributeID]Bag, len(m))
		for id, bag := range m {
			cm[id] = slices.Clone(bag)
		}
		out.Attrs[cat] = cm
	}
	return out
}

// CanonicalBytes returns a deterministic encoding of the request content
// (excluding the correlation ID) used for integrity digests: the monitor
// compares the digest logged at the PEP with the digest logged at the PDP
// (check M1).
func (r *Request) CanonicalBytes() []byte {
	return r.appendCanonical(make([]byte, 0, 256))
}

// Digest returns the content digest of the request. The PEP and PDP probes
// each take it per request, so it hashes from a stack buffer and allocates
// nothing while the canonical form fits in 512 bytes.
func (r *Request) Digest() crypto.Digest {
	var buf [512]byte
	return crypto.Sum(r.appendCanonical(buf[:0]))
}

// appendCanonical appends CanonicalBytes' encoding to buf: for each category
// and then each attribute in sorted order, "cat/id=[keys];", where keys are
// the bag's value keys (Value.Key) sorted and comma-separated. Names and
// keys are sorted in stack arrays, which spill to the heap only past 8
// categories, 16 attributes in a category or 16 values in a bag.
func (r *Request) appendCanonical(buf []byte) []byte {
	var catArr [8]Category
	cats := catArr[:0]
	for c := range r.Attrs {
		cats = append(cats, c)
	}
	slices.Sort(cats)
	var idArr [16]AttributeID
	for _, c := range cats {
		m := r.Attrs[c]
		ids := idArr[:0]
		for id := range m {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			buf = append(buf, c...)
			buf = append(buf, '/')
			buf = append(buf, id...)
			buf = append(buf, '=', '[')
			switch bag := m[id]; len(bag) {
			case 0:
			case 1:
				buf = bag[0].appendKey(buf)
			default:
				buf = appendSortedKeys(buf, bag)
			}
			buf = append(buf, ']', ';')
		}
	}
	return buf
}

// appendSortedKeys appends the keys of bag's values in sorted order,
// comma-separated. The keys are written to a stack buffer and sorted as
// spans of it.
func appendSortedKeys(buf []byte, bag Bag) []byte {
	type span struct{ i, j int }
	var keyArr [512]byte
	var spanArr [16]span
	keys, spans := keyArr[:0], spanArr[:0]
	for _, v := range bag {
		i := len(keys)
		keys = v.appendKey(keys)
		spans = append(spans, span{i, len(keys)})
	}
	slices.SortFunc(spans, func(a, b span) int { return bytes.Compare(keys[a.i:a.j], keys[b.i:b.j]) })
	for n, sp := range spans {
		if n > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, keys[sp.i:sp.j]...)
	}
	return buf
}

// Designator references an attribute in a request.
type Designator struct {
	Cat Category    `json:"cat"`
	ID  AttributeID `json:"id"`
	// MustBePresent makes a missing attribute an evaluation error
	// (Indeterminate) rather than a non-match.
	MustBePresent bool `json:"mustBePresent,omitempty"`
}

// ErrMissingAttribute signals a MustBePresent designator with no values.
var ErrMissingAttribute = errors.New("xacml: missing attribute")

// Resolve returns the designated bag; a MustBePresent designator with an
// empty bag returns ErrMissingAttribute itself: evaluation only tests for an
// error, so naming the attribute would cost an allocation per miss.
func (d Designator) Resolve(r *Request) (Bag, error) {
	bag := r.Get(d.Cat, d.ID)
	if len(bag) == 0 && d.MustBePresent {
		return nil, ErrMissingAttribute
	}
	return bag, nil
}

// Key returns a canonical identifier for the designated attribute (ignoring
// MustBePresent), used by the analyser's domain extraction.
func (d Designator) Key() string { return string(d.Cat) + "/" + string(d.ID) }
