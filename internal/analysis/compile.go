// Package analysis is the formally-grounded policy analyser of DRAMS
// (paper §II: "On the base of a logical representation of the access control
// policies evaluated by the PDP, the Analyser checks if for a given request
// the calculated response is the expected one", per the rigorous XACML
// framework of reference [8]).
//
// The analyser compiles a policy set into a normalised logical form —
// per-rule applicability predicates over attribute atoms, combined by an
// independent implementation of the XACML combining algorithms — and offers
// ExpectedDecision: re-derivation of the decision for a request, used by the
// monitor's M5 check to detect compromised PDPs. That per-request check is
// all §II asks of the analyser.
//
// The compiled form deliberately re-implements target matching (as
// three-valued predicate evaluation) and the combining algorithms, so the
// analyser and the PDP share no decision logic: agreement between them is a
// meaningful differential check, divergence a strong tamper signal.
package analysis

import (
	"drams/internal/xacml"
)

// tv is a three-valued logic value.
type tv uint8

const (
	tvFalse tv = iota + 1
	tvTrue
	tvError
)

func tvOf(b bool) tv {
	if b {
		return tvTrue
	}
	return tvFalse
}

// pred is a compiled three-valued predicate over requests.
type pred func(r *xacml.Request) tv

// andPred: False dominates Error (XACML AllOf/AND semantics).
func andPred(ps []pred) pred {
	return func(r *xacml.Request) tv {
		out := tvTrue
		for _, p := range ps {
			switch p(r) {
			case tvFalse:
				return tvFalse
			case tvError:
				out = tvError
			}
		}
		return out
	}
}

// orPred: True dominates Error (XACML AnyOf/OR semantics).
func orPred(ps []pred) pred {
	return func(r *xacml.Request) tv {
		out := tvFalse
		for _, p := range ps {
			switch p(r) {
			case tvTrue:
				return tvTrue
			case tvError:
				out = tvError
			}
		}
		return out
	}
}

func notPred(p pred) pred {
	return func(r *xacml.Request) tv {
		switch p(r) {
		case tvTrue:
			return tvFalse
		case tvFalse:
			return tvTrue
		default:
			return tvError
		}
	}
}

// compileMatch converts one target Match into a predicate.
func compileMatch(m xacml.Match) pred {
	e := &xacml.CmpExpr{Op: m.Op, Attr: m.Attr, Lit: m.Lit}
	return compileExpr(e)
}

// compileTarget converts a Target (AND of AnyOf; OR of AllOf; AND of
// Matches) into a predicate. An empty target is constantly true.
func compileTarget(t xacml.Target) pred {
	if t.IsEmpty() {
		return func(*xacml.Request) tv { return tvTrue }
	}
	anys := make([]pred, 0, len(t.AnyOf))
	for _, any := range t.AnyOf {
		alls := make([]pred, 0, len(any.AllOf))
		for _, all := range any.AllOf {
			ms := make([]pred, 0, len(all.Matches))
			for _, m := range all.Matches {
				ms = append(ms, compileMatch(m))
			}
			alls = append(alls, andPred(ms))
		}
		anys = append(anys, orPred(alls))
	}
	// The outer AnyOf list is conjunctive: every AnyOf clause must match.
	return andPred(anys)
}

// compileExpr converts a condition expression into a predicate. The
// evaluation path goes through Expr.Eval (which is shared code for leaf
// comparison semantics) but logical composition and the surrounding rule /
// combining machinery is re-implemented here.
func compileExpr(e xacml.Expr) pred {
	switch x := e.(type) {
	case nil:
		return func(*xacml.Request) tv { return tvTrue }
	case *xacml.AndExpr:
		ps := make([]pred, len(x.Args))
		for i, a := range x.Args {
			ps[i] = compileExpr(a)
		}
		return andPred(ps)
	case *xacml.OrExpr:
		ps := make([]pred, len(x.Args))
		for i, a := range x.Args {
			ps[i] = compileExpr(a)
		}
		return orPred(ps)
	case *xacml.NotExpr:
		return notPred(compileExpr(x.Arg))
	default:
		// Leaf node: delegate to its own evaluation.
		leaf := e
		return func(r *xacml.Request) tv {
			v, err := leaf.Eval(r)
			if err != nil {
				return tvError
			}
			return tvOf(v)
		}
	}
}

// compiledRule is the normalised form of a rule: effect + one applicability
// predicate (target ∧ condition).
type compiledRule struct {
	id     string
	effect xacml.Effect
	target pred
	cond   pred
}

func (cr *compiledRule) decide(r *xacml.Request) xacml.Decision {
	switch cr.target(r) {
	case tvFalse:
		return xacml.NotApplicable
	case tvError:
		return indetFor(cr.effect)
	}
	switch cr.cond(r) {
	case tvFalse:
		return xacml.NotApplicable
	case tvError:
		return indetFor(cr.effect)
	}
	if cr.effect == xacml.EffectPermit {
		return xacml.Permit
	}
	return xacml.Deny
}

func indetFor(e xacml.Effect) xacml.Decision {
	if e == xacml.EffectPermit {
		return xacml.IndeterminateP
	}
	return xacml.IndeterminateD
}

// compiledNode is a policy or policy set in normalised form.
type compiledNode struct {
	id       string
	target   pred
	alg      xacml.CombiningAlg
	rules    []*compiledRule // non-nil for policies
	children []*compiledNode // non-nil for policy sets
	// childTargets mirrors children targets for only-one-applicable.
	childTargets []pred
}

// Compiled is the analyser's normalised logical representation of a policy
// set, with an independent evaluator.
type Compiled struct {
	root *compiledNode
}

// Compile normalises a policy set.
func Compile(ps *xacml.PolicySet) *Compiled {
	c := &Compiled{}
	c.root = c.compileSet(ps)
	return c
}

func (c *Compiled) compileSet(ps *xacml.PolicySet) *compiledNode {
	n := &compiledNode{id: ps.ID, target: compileTarget(ps.Target), alg: ps.Alg}
	for _, item := range ps.Items {
		if item.Policy != nil {
			n.children = append(n.children, c.compilePolicy(item.Policy))
			n.childTargets = append(n.childTargets, compileTarget(item.Policy.Target))
		} else if item.Set != nil {
			n.children = append(n.children, c.compileSet(item.Set))
			n.childTargets = append(n.childTargets, compileTarget(item.Set.Target))
		}
	}
	return n
}

func (c *Compiled) compilePolicy(p *xacml.Policy) *compiledNode {
	n := &compiledNode{id: p.ID, target: compileTarget(p.Target), alg: p.Alg}
	for _, ru := range p.Rules {
		n.rules = append(n.rules, &compiledRule{
			id:     ru.ID,
			effect: ru.Effect,
			target: compileTarget(ru.Target),
			cond:   compileExpr(ru.Condition),
		})
	}
	return n
}

// ExpectedDecision re-derives the decision for a request from the
// normalised form (six-valued).
func (c *Compiled) ExpectedDecision(r *xacml.Request) xacml.Decision {
	return c.evalNode(c.root, r)
}

// ExpectedSimple is ExpectedDecision collapsed to the four-valued lattice a
// PEP sees; this is what the M5 monitor check compares.
func (c *Compiled) ExpectedSimple(r *xacml.Request) xacml.Decision {
	return c.ExpectedDecision(r).Simple()
}

func (c *Compiled) evalNode(n *compiledNode, r *xacml.Request) xacml.Decision {
	switch n.target(r) {
	case tvFalse:
		return xacml.NotApplicable
	case tvError:
		return downgrade(c.evalChildren(n, r))
	}
	return c.evalChildren(n, r)
}

func (c *Compiled) evalChildren(n *compiledNode, r *xacml.Request) xacml.Decision {
	if n.rules != nil {
		ds := make([]xacml.Decision, len(n.rules))
		for i, ru := range n.rules {
			ds[i] = ru.decide(r)
		}
		return combineDecisions(n.alg, ds)
	}
	if n.alg == xacml.OnlyOneApplicable {
		selected := -1
		for i, ct := range n.childTargets {
			switch ct(r) {
			case tvError:
				return xacml.IndeterminateDP
			case tvTrue:
				if selected >= 0 {
					return xacml.IndeterminateDP
				}
				selected = i
			}
		}
		if selected < 0 {
			return xacml.NotApplicable
		}
		return c.evalNode(n.children[selected], r)
	}
	ds := make([]xacml.Decision, len(n.children))
	for i, ch := range n.children {
		ds[i] = c.evalNode(ch, r)
	}
	return combineDecisions(n.alg, ds)
}

// downgrade applies the indeterminate-target rule (XACML table 7).
func downgrade(d xacml.Decision) xacml.Decision {
	switch d {
	case xacml.Permit:
		return xacml.IndeterminateP
	case xacml.Deny:
		return xacml.IndeterminateD
	default:
		return d
	}
}

// combineDecisions is the analyser's own implementation of the combining
// algorithms (kept textually independent from package xacml).
func combineDecisions(alg xacml.CombiningAlg, ds []xacml.Decision) xacml.Decision {
	switch alg {
	case xacml.DenyOverrides, xacml.PermitOverrides:
		win, lose := xacml.Deny, xacml.Permit
		indetWin, indetLose := xacml.IndeterminateD, xacml.IndeterminateP
		if alg == xacml.PermitOverrides {
			win, lose = xacml.Permit, xacml.Deny
			indetWin, indetLose = xacml.IndeterminateP, xacml.IndeterminateD
		}
		var sawLose, sawIW, sawIL, sawIDP bool
		for _, d := range ds {
			switch d {
			case win:
				return win
			case lose:
				sawLose = true
			case indetWin:
				sawIW = true
			case indetLose:
				sawIL = true
			case xacml.IndeterminateDP:
				sawIDP = true
			}
		}
		switch {
		case sawIDP, sawIW && (sawIL || sawLose):
			return xacml.IndeterminateDP
		case sawIW:
			return indetWin
		case sawLose:
			return lose
		case sawIL:
			return indetLose
		default:
			return xacml.NotApplicable
		}
	case xacml.FirstApplicable:
		for _, d := range ds {
			switch d {
			case xacml.NotApplicable:
				continue
			case xacml.Permit, xacml.Deny:
				return d
			default:
				return xacml.IndeterminateDP
			}
		}
		return xacml.NotApplicable
	case xacml.DenyUnlessPermit:
		for _, d := range ds {
			if d == xacml.Permit {
				return xacml.Permit
			}
		}
		return xacml.Deny
	case xacml.PermitUnlessDeny:
		for _, d := range ds {
			if d == xacml.Deny {
				return xacml.Deny
			}
		}
		return xacml.Permit
	default:
		return xacml.IndeterminateDP
	}
}
