package xacml

import (
	"encoding/json"
	"errors"
	"sync/atomic"

	"drams/internal/crypto"
)

// ErrNoPolicy is returned when the PDP has no policy loaded.
var ErrNoPolicy = errors.New("xacml: no policy loaded")

// Result is the full PDP response for one request.
type Result struct {
	// RequestID echoes the request correlation ID.
	RequestID string
	// Decision is the simplified four-valued decision a PEP acts upon.
	Decision Decision
	// Extended preserves the six-valued decision for diagnostics.
	Extended Decision
	// Obligations must be fulfilled by the PEP alongside enforcement.
	Obligations []Obligation
	// PolicyID and PolicyVersion identify the evaluated policy set.
	PolicyID      string
	PolicyVersion string
	// PolicyDigest is the canonical digest of the evaluated policy set;
	// the monitor's M6 check compares it with the PAP-anchored digest.
	PolicyDigest crypto.Digest
}

// Digest returns the content digest of the result (decision + obligations +
// policy identity), used for the response-integrity check M2.
func (res Result) Digest() crypto.Digest {
	chunks := [][]byte{
		[]byte(res.RequestID),
		{byte(res.Decision)},
		[]byte(res.PolicyID),
		[]byte(res.PolicyVersion),
		res.PolicyDigest.Bytes(),
	}
	for _, o := range res.Obligations {
		b, err := json.Marshal(o)
		if err != nil {
			continue
		}
		chunks = append(chunks, b)
	}
	return crypto.SumAll(chunks...)
}

// PDP is the Policy Decision Point: it evaluates requests against the
// currently active policy set. Policy swaps are atomic; evaluation is
// lock-free on the hot path. With a DecisionCache attached (SetCache),
// repeated requests with identical attribute content are answered from the
// cache — bit-for-bit the result full evaluation would produce, since a
// decision is a pure function of (attributes, policy set) and entries are
// keyed by both digests.
type PDP struct {
	current atomic.Pointer[loadedPolicy]
	cache   atomic.Pointer[DecisionCache]
}

type loadedPolicy struct {
	set    *PolicySet
	digest crypto.Digest
}

// NewPDP returns a PDP, optionally pre-loaded. The decision cache is off;
// attach one with SetCache or use NewCachedPDP.
func NewPDP(ps *PolicySet) *PDP {
	p := &PDP{}
	if ps != nil {
		p.Load(ps)
	}
	return p
}

// NewCachedPDP returns a PDP with a decision cache of roughly cacheSize
// entries attached.
func NewCachedPDP(ps *PolicySet, cacheSize int) *PDP {
	p := NewPDP(ps)
	p.SetCache(NewDecisionCache(cacheSize))
	return p
}

// SetCache attaches a decision cache (nil detaches, restoring
// evaluate-from-scratch behaviour).
func (p *PDP) SetCache(c *DecisionCache) { p.cache.Store(c) }

// Load activates a policy set (clone-on-load so later caller mutations
// cannot affect evaluation). An attached cache is purged; entries are also
// keyed by policy digest, so even an un-purged entry could not leak a stale
// decision.
func (p *PDP) Load(ps *PolicySet) {
	cl := ps.Clone()
	p.current.Store(&loadedPolicy{set: cl, digest: cl.Digest()})
	if c := p.cache.Load(); c != nil {
		c.Purge()
	}
}

// Evaluate computes the decision for a request, answering from the
// decision cache when one is attached and the request's attribute content
// was evaluated before under the active policy set. Only the correlation ID
// differs between requests sharing a cache entry, and it is re-stamped per
// call, so cached and freshly evaluated results are identical.
func (p *PDP) Evaluate(r *Request) (Result, error) {
	// The cache epoch is pinned before the policy snapshot: a Load (and
	// its Purge) between here and the final Put makes the Put a no-op, so
	// a decision computed against policy A can never be parked in the
	// cache a hot swap to policy B just cleared — and Get is additionally
	// keyed by A's digest, so even a surviving entry could not serve B.
	cache := p.cache.Load()
	var epoch uint64
	if cache != nil {
		epoch = cache.Epoch()
	}
	lp := p.current.Load()
	if lp == nil {
		return Result{}, ErrNoPolicy
	}
	var key crypto.Digest
	if cache != nil {
		key = r.Digest()
		if res, ok := cache.Get(key, lp.digest); ok {
			res.RequestID = r.ID
			return res, nil
		}
	}
	ext, obls := lp.set.decide(r)
	res := Result{
		RequestID:     r.ID,
		Decision:      ext.Simple(),
		Extended:      ext,
		Obligations:   obls,
		PolicyID:      lp.set.ID,
		PolicyVersion: lp.set.Version,
		PolicyDigest:  lp.digest,
	}
	if cache != nil {
		stored := res
		stored.RequestID = ""
		cache.Put(key, lp.digest, stored, epoch)
	}
	return res, nil
}

// Evaluator is the minimal decision interface consumed by PEPs and by the
// attack-injection layer (a compromised PDP wraps a PDP with this). The
// request passed to Evaluate is valid until the call returns (the PDP
// service decodes into a pooled one); clone what you keep.
type Evaluator interface {
	Evaluate(r *Request) (Result, error)
}

var _ Evaluator = (*PDP)(nil)
