package xacml

import (
	"fmt"
	"strings"
)

// MatchResult is the three-valued outcome of target matching.
type MatchResult uint8

// Target match outcomes.
const (
	MatchNo MatchResult = iota + 1
	MatchYes
	MatchIndeterminate
)

// String implements fmt.Stringer.
func (m MatchResult) String() string {
	switch m {
	case MatchNo:
		return "NoMatch"
	case MatchYes:
		return "Match"
	case MatchIndeterminate:
		return "Indeterminate"
	default:
		return fmt.Sprintf("MatchResult(%d)", uint8(m))
	}
}

// Match is one attribute test: true if at least one value of the designated
// bag satisfies the comparison against the literal.
type Match struct {
	Op   CmpOp      `json:"op"`
	Attr Designator `json:"attr"`
	Lit  Value      `json:"lit"`
}

// Evaluate computes the three-valued result of the match.
func (m Match) Evaluate(r *Request) MatchResult {
	bag, err := m.Attr.Resolve(r)
	if err != nil {
		return MatchIndeterminate
	}
	for _, v := range bag {
		ok, err := applyCmp(m.Op, v, m.Lit)
		if err != nil {
			return MatchIndeterminate
		}
		if ok {
			return MatchYes
		}
	}
	return MatchNo
}

// String renders the match for debugging.
func (m Match) String() string {
	return fmt.Sprintf("%s %s %s", m.Attr.Key(), m.Op, m.Lit)
}

// AllOf is a conjunction of matches.
type AllOf struct {
	Matches []Match `json:"matches"`
}

// Evaluate per XACML 3.0 §5.8: all must match; an Indeterminate operand
// makes the conjunction Indeterminate unless some operand is NoMatch.
func (a AllOf) Evaluate(r *Request) MatchResult {
	result := MatchYes
	for _, m := range a.Matches {
		switch m.Evaluate(r) {
		case MatchNo:
			return MatchNo
		case MatchIndeterminate:
			result = MatchIndeterminate
		}
	}
	return result
}

// AnyOf is a disjunction of AllOf conjunctions.
type AnyOf struct {
	AllOf []AllOf `json:"allOf"`
}

// Evaluate per XACML 3.0 §5.7: at least one AllOf must match; Match
// dominates Indeterminate.
func (a AnyOf) Evaluate(r *Request) MatchResult {
	result := MatchNo
	for _, all := range a.AllOf {
		switch all.Evaluate(r) {
		case MatchYes:
			return MatchYes
		case MatchIndeterminate:
			result = MatchIndeterminate
		}
	}
	return result
}

// Target is a conjunction of AnyOf clauses (XACML 3.0 §5.6). An empty
// Target matches every request.
type Target struct {
	AnyOf []AnyOf `json:"anyOf,omitempty"`
}

// Evaluate computes the target's three-valued result.
func (t Target) Evaluate(r *Request) MatchResult {
	result := MatchYes
	for _, any := range t.AnyOf {
		switch any.Evaluate(r) {
		case MatchNo:
			return MatchNo
		case MatchIndeterminate:
			result = MatchIndeterminate
		}
	}
	return result
}

// IsEmpty reports whether the target matches everything trivially.
func (t Target) IsEmpty() bool { return len(t.AnyOf) == 0 }

// String renders the target for debugging.
func (t Target) String() string {
	if t.IsEmpty() {
		return "true"
	}
	var anys []string
	for _, any := range t.AnyOf {
		var alls []string
		for _, all := range any.AllOf {
			var ms []string
			for _, m := range all.Matches {
				ms = append(ms, m.String())
			}
			alls = append(alls, "("+strings.Join(ms, " ∧ ")+")")
		}
		anys = append(anys, "("+strings.Join(alls, " ∨ ")+")")
	}
	return strings.Join(anys, " ∧ ")
}

// TargetMatching builds a target matching a single equality test; a common
// construction convenience.
//
//lint:ignore deadcode examples/quickstart writes its policy with it, and the xacml, analysis, core and federation packages' tests build targets with it
func TargetMatching(cat Category, id AttributeID, v Value) Target {
	return Target{AnyOf: []AnyOf{{AllOf: []AllOf{{Matches: []Match{{
		Op: CmpEq, Attr: Designator{Cat: cat, ID: id}, Lit: v,
	}}}}}}}
}
