// Package xacml implements the access-control substrate that DRAMS
// monitors: a faithful subset of the OASIS XACML 3.0 model (paper §I — the
// FaaS access control system "is based on the eXtensible Access Control
// Markup Language (XACML) consisting of Policy Decision Point (PDP) and
// Policy Enforcement Point (PEP)").
//
// The subset covers: typed attribute values and bags, four attribute
// categories, DNF targets (AnyOf / AllOf / Match), rules with boolean
// condition expressions, policies and policy sets with the six standard
// combining algorithms, extended-Indeterminate decision semantics per
// XACML 3.0 §7, obligations gathered by the walk that decides, a binary
// PEP↔PDP wire codec (wire.go), JSON serialisation of policies and
// canonical digests used by the monitor to detect policy substitution
// (check M6).
package xacml

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Type enumerates attribute data types.
type Type uint8

// Supported attribute types.
const (
	TypeString Type = iota + 1
	TypeInt
	TypeFloat
	TypeBool
	TypeTime
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	case TypeTime:
		return "time"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ErrUnsupportedValue marks a value outside what a request may carry: a type
// outside TypeString..TypeTime, a NaN or infinite float, or a time that
// RFC 3339 (year outside 0–9999, zone hour beyond 23) or time.MarshalBinary
// cannot write. It is a rule, not a codec limit: the binary wire and the
// sealed probe context could hold NaN and far years, and they widen together
// or not at all.
var ErrUnsupportedValue = errors.New("xacml: unsupported value")

// check reports whether v is one a request may carry (ErrUnsupportedValue
// otherwise).
func (v Value) check() error {
	switch v.T {
	case TypeString, TypeInt, TypeBool:
		return nil
	case TypeFloat:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return fmt.Errorf("%w: float %v", ErrUnsupportedValue, v.F)
		}
		return nil
	case TypeTime:
		var buf [64]byte
		_, err := v.Tm.AppendText(buf[:0])
		if err == nil {
			_, err = v.Tm.AppendBinary(buf[:0])
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrUnsupportedValue, err)
		}
		return nil
	default:
		return fmt.Errorf("%w: %s", ErrUnsupportedValue, v.T)
	}
}

// ErrTypeMismatch is returned when comparing values of different types.
var ErrTypeMismatch = errors.New("xacml: type mismatch")

// ErrNotOrdered is returned when ordering is requested for an unordered
// type (bool).
var ErrNotOrdered = errors.New("xacml: type has no ordering")

// Value is a typed attribute value.
type Value struct {
	T  Type      `json:"t"`
	S  string    `json:"s,omitempty"`
	I  int64     `json:"i,omitempty"`
	F  float64   `json:"f,omitempty"`
	B  bool      `json:"b,omitempty"`
	Tm time.Time `json:"tm,omitempty"`
}

// String builds a string value.
func String(s string) Value { return Value{T: TypeString, S: s} }

// Int builds an integer value.
func Int(i int64) Value { return Value{T: TypeInt, I: i} }

// Float builds a float value.
//
//lint:ignore deadcode Value constructor beside String and Int: the xacml, analysis, core and federation packages' tests build float attributes with it
func Float(f float64) Value { return Value{T: TypeFloat, F: f} }

// Bool builds a boolean value.
//
//lint:ignore deadcode Value constructor beside String, Int and Float: xacml's and core's tests build bool and time attributes with it
func Bool(b bool) Value { return Value{T: TypeBool, B: b} }

// Time builds a time value.
//
//lint:ignore deadcode Value constructor beside String, Int and Float: xacml's and core's tests build bool and time attributes with it
func Time(tm time.Time) Value { return Value{T: TypeTime, Tm: tm.UTC()} }

// Equal reports exact typed equality.
func (v Value) Equal(o Value) bool {
	if v.T != o.T {
		return false
	}
	switch v.T {
	case TypeString:
		return v.S == o.S
	case TypeInt:
		return v.I == o.I
	case TypeFloat:
		return v.F == o.F
	case TypeBool:
		return v.B == o.B
	case TypeTime:
		return v.Tm.Equal(o.Tm)
	default:
		return false
	}
}

// Compare returns -1/0/+1 ordering for ordered types and an error for type
// mismatches or unordered types.
func (v Value) Compare(o Value) (int, error) {
	if v.T != o.T {
		return 0, fmt.Errorf("%w: %s vs %s", ErrTypeMismatch, v.T, o.T)
	}
	switch v.T {
	case TypeString:
		switch {
		case v.S < o.S:
			return -1, nil
		case v.S > o.S:
			return 1, nil
		}
		return 0, nil
	case TypeInt:
		switch {
		case v.I < o.I:
			return -1, nil
		case v.I > o.I:
			return 1, nil
		}
		return 0, nil
	case TypeFloat:
		switch {
		case v.F < o.F:
			return -1, nil
		case v.F > o.F:
			return 1, nil
		}
		return 0, nil
	case TypeTime:
		switch {
		case v.Tm.Before(o.Tm):
			return -1, nil
		case v.Tm.After(o.Tm):
			return 1, nil
		}
		return 0, nil
	case TypeBool:
		return 0, ErrNotOrdered
	default:
		return 0, fmt.Errorf("xacml: compare unknown type %d", v.T)
	}
}

// String renders the value for debugging and witnesses.
func (v Value) String() string {
	switch v.T {
	case TypeString:
		return strconv.Quote(v.S)
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeBool:
		return strconv.FormatBool(v.B)
	case TypeTime:
		return v.Tm.Format(time.RFC3339)
	default:
		return "<invalid>"
	}
}

// Key returns a canonical map key for the value, used for deduplication in
// the analyser's finite-domain abstraction.
func (v Value) Key() string {
	return string(v.appendKey(nil))
}

// appendKey appends the Key encoding to dst. This is the hot path of
// request canonicalization (probe digests, the analyser's domain keys), so
// it avoids fmt; the output stays byte-identical to the historic
// fmt-based encoding.
func (v Value) appendKey(dst []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(v.T), 10)
	dst = append(dst, '|')
	switch v.T {
	case TypeString:
		dst = strconv.AppendQuote(dst, v.S)
	case TypeInt:
		dst = strconv.AppendInt(dst, v.I, 10)
	case TypeFloat:
		dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case TypeBool:
		dst = strconv.AppendBool(dst, v.B)
	case TypeTime:
		dst = v.Tm.AppendFormat(dst, time.RFC3339)
	default:
		dst = append(dst, "<invalid>"...)
	}
	return dst
}

// Bag is an unordered multiset of values, the XACML attribute-bag type.
type Bag []Value

// Contains reports whether the bag holds a value equal to v.
//
//lint:ignore deadcode test helper: the xacml, analysis and federation packages' tests look values up in a bag with it
func (b Bag) Contains(v Value) bool {
	for _, x := range b {
		if x.Equal(v) {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the bag has no values.
func (b Bag) IsEmpty() bool { return len(b) == 0 }

// MarshalJSON keeps empty bags explicit.
func (b Bag) MarshalJSON() ([]byte, error) {
	return json.Marshal([]Value(b))
}
