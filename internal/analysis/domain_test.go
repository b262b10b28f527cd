package analysis

import (
	"fmt"
	"sort"

	"drams/internal/idgen"
	"drams/internal/xacml"
)

// attrDomain is the abstract value domain of one attribute: the constants
// the policy mentions, boundary neighbours for ordered types, one fresh
// value the policy never mentions, and "absent".
type attrDomain struct {
	des    xacml.Designator // MustBePresent stripped
	values []xacml.Value    // candidate present values
}

// Domain is the finite abstraction of a policy's attribute space. Every
// behavioural boundary of the policy (equality with a constant, ordered
// thresholds, presence) is crossed by at least one domain element, so
// exhaustive evaluation over the domain exercises every reachable branch of
// the compiled form — the standard constant-analysis construction used by
// XACML verification tools (ref [8]). TestDifferentialOverAbstractDomain
// draws its boundary-value requests from it.
type Domain struct {
	attrs []attrDomain
}

// ExtractDomain walks one or more policy sets and builds the union domain.
func ExtractDomain(sets ...*xacml.PolicySet) *Domain {
	acc := make(map[string]map[string]xacml.Value) // attrKey → valueKey → value
	des := make(map[string]xacml.Designator)

	addVal := func(d xacml.Designator, v xacml.Value) {
		d.MustBePresent = false
		key := d.Key()
		if _, ok := acc[key]; !ok {
			acc[key] = make(map[string]xacml.Value)
			des[key] = d
		}
		acc[key][v.Key()] = v
		// Boundary neighbours for ordered types so that <, <=, >, >=
		// thresholds are crossed.
		switch v.T {
		case xacml.TypeInt:
			for _, nb := range []xacml.Value{xacml.Int(v.I - 1), xacml.Int(v.I + 1)} {
				acc[key][nb.Key()] = nb
			}
		case xacml.TypeFloat:
			for _, nb := range []xacml.Value{xacml.Float(v.F - 0.5), xacml.Float(v.F + 0.5)} {
				acc[key][nb.Key()] = nb
			}
		}
	}
	addAttr := func(d xacml.Designator) {
		d.MustBePresent = false
		key := d.Key()
		if _, ok := acc[key]; !ok {
			acc[key] = make(map[string]xacml.Value)
			des[key] = d
		}
	}

	var walkTarget func(t xacml.Target)
	walkTarget = func(t xacml.Target) {
		for _, any := range t.AnyOf {
			for _, all := range any.AllOf {
				for _, m := range all.Matches {
					addVal(m.Attr, m.Lit)
				}
			}
		}
	}
	var walkExpr func(e xacml.Expr)
	walkExpr = func(e xacml.Expr) {
		if e == nil {
			return
		}
		e.Walk(func(n xacml.Expr) {
			switch x := n.(type) {
			case *xacml.CmpExpr:
				addVal(x.Attr, x.Lit)
			case *xacml.InExpr:
				for _, v := range x.Set {
					addVal(x.Attr, v)
				}
			case *xacml.PresentExpr:
				addAttr(x.Attr)
			}
		})
	}
	var walkSet func(ps *xacml.PolicySet)
	walkPolicy := func(p *xacml.Policy) {
		walkTarget(p.Target)
		for _, ru := range p.Rules {
			walkTarget(ru.Target)
			walkExpr(ru.Condition)
		}
	}
	walkSet = func(ps *xacml.PolicySet) {
		walkTarget(ps.Target)
		for _, item := range ps.Items {
			if item.Policy != nil {
				walkPolicy(item.Policy)
			}
			if item.Set != nil {
				walkSet(item.Set)
			}
		}
	}
	for _, ps := range sets {
		walkSet(ps)
	}

	dom := &Domain{}
	keys := make([]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vals := acc[k]
		ad := attrDomain{des: des[k]}
		vkeys := make([]string, 0, len(vals))
		for vk := range vals {
			vkeys = append(vkeys, vk)
		}
		sort.Strings(vkeys)
		var sawString, sawInt bool
		for _, vk := range vkeys {
			v := vals[vk]
			ad.values = append(ad.values, v)
			switch v.T {
			case xacml.TypeString:
				sawString = true
			case xacml.TypeInt:
				sawInt = true
			}
		}
		// One fresh value per observed type (a value the policy never
		// names) to represent "everything else".
		if sawString || len(ad.values) == 0 {
			ad.values = append(ad.values, xacml.String("⟂fresh⟂"))
		}
		if sawInt {
			ad.values = append(ad.values, xacml.Int(1<<40))
		}
		dom.attrs = append(dom.attrs, ad)
	}
	return dom
}

// Size returns the number of abstract requests (product of per-attribute
// options including "absent"), saturating at maxInt to avoid overflow.
func (d *Domain) Size() int {
	const maxInt = int(^uint(0) >> 1)
	size := 1
	for _, a := range d.attrs {
		opts := len(a.values) + 1 // +1 for absent
		if size > maxInt/opts {
			return maxInt
		}
		size *= opts
	}
	return size
}

// EnumParams bound domain enumeration.
type EnumParams struct {
	// MaxRequests caps how many abstract requests are produced. If the
	// full cartesian product fits, enumeration is exhaustive; otherwise a
	// seeded uniform sample is drawn.
	MaxRequests int
	// Seed drives sampling when the product exceeds MaxRequests.
	Seed uint64
}

// DefaultEnumParams enumerate up to 20 000 abstract requests.
func DefaultEnumParams() EnumParams { return EnumParams{MaxRequests: 20000, Seed: 1} }

// Requests materialises the abstract request set.
func (d *Domain) Requests(params EnumParams) []*xacml.Request {
	if params.MaxRequests <= 0 {
		params.MaxRequests = 20000
	}
	if len(d.attrs) == 0 {
		return []*xacml.Request{xacml.NewRequest("abs-0")}
	}
	if size := d.Size(); size <= params.MaxRequests {
		return d.enumerate(size)
	}
	return d.sample(params)
}

// enumerate walks the full cartesian product (size precomputed to fit).
func (d *Domain) enumerate(size int) []*xacml.Request {
	out := make([]*xacml.Request, 0, size)
	idx := make([]int, len(d.attrs)) // 0 = absent, k>0 = values[k-1]
	for {
		r := xacml.NewRequest(fmt.Sprintf("abs-%d", len(out)))
		for i, a := range d.attrs {
			if idx[i] > 0 {
				r.Add(a.des.Cat, a.des.ID, a.values[idx[i]-1])
			}
		}
		out = append(out, r)
		// Odometer increment.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] <= len(d.attrs[i].values) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			return out
		}
	}
}

// sample draws MaxRequests uniform abstract requests.
func (d *Domain) sample(params EnumParams) []*xacml.Request {
	rng := idgen.NewRand(params.Seed)
	out := make([]*xacml.Request, 0, params.MaxRequests)
	for n := 0; n < params.MaxRequests; n++ {
		r := xacml.NewRequest(fmt.Sprintf("abs-%d", n))
		for _, a := range d.attrs {
			pick := rng.Intn(len(a.values) + 1)
			if pick > 0 {
				r.Add(a.des.Cat, a.des.ID, a.values[pick-1])
			}
		}
		out = append(out, r)
	}
	return out
}
