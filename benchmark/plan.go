package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"drams/internal/federation"
	"drams/internal/xacml"
)

// Fleet constants shared by every workload (ISSUE 13 ground rules): the
// deployment seed is pinned so identities, keys and the genesis are the
// same in every run; only the workload seed varies.
const (
	deploymentSeed = 7
	clouds         = 3
	timeoutBlocks  = 64 // Δ: wide enough that an honest exchange never times out
	subjects       = 512
	zipfS          = 1.1
	acPoolSize     = 256
	acCheckEvery   = 64 // every 64th acplane decision is checked against the reference PDP
	flipCount      = 10
)

// spec is the fixed definition of one workload. Work is always a count
// derived from the nominal run length, never a duration: the cost of an
// exchange grows with chain length, so a timed loop would measure how long
// it ran.
type spec struct {
	Name string
	Why  string
	// Monitored turns the whole monitoring plane on (probes, LI, chain
	// logging, analyser, monitor); off leaves PEP → PDP only.
	Monitored bool
	// OpenLoop schedules arrivals by a seeded Poisson process at PerSecond;
	// otherwise two issuers run a closed loop of PerSecond × seconds
	// completions.
	OpenLoop    bool
	PerSecond   float64
	NetLatency  time.Duration
	TamperShare float64
	Flips       bool
	// Outstanding caps un-settled exchanges in a monitored closed loop.
	Outstanding int
	Warmup      int
}

var specs = []spec{
	{
		Name: "steady", Monitored: true, OpenLoop: true, PerSecond: 30,
		NetLatency: time.Millisecond, TamperShare: 0.10, Warmup: 100,
		Why: "open loop at 30/s, a quarter of capacity, 10% of requests rewritten in transit: latency is service time, every monitoring layer is on the path, alerts run beside matches",
	},
	{
		Name: "capacity", Monitored: true, PerSecond: 120, Outstanding: 4,
		NetLatency: time.Millisecond, Warmup: 100,
		Why: "closed loop over the whole exchange, at most 4 un-settled: CPU-saturates chain, contract and monitor with a bounded backlog and a large end state",
	},
	{
		Name: "acplane", PerSecond: 15000, Warmup: 20000,
		Why: "monitoring off, zero net latency, 200-rule policy, half cache hits: only PEP, transport and PDP run, so chain, logger and monitor changes must not move it",
	},
	{
		Name: "policy-churn", Monitored: true, OpenLoop: true, PerSecond: 30,
		NetLatency: time.Millisecond, Flips: true, Warmup: 100,
		Why: "steady's arrivals without tampering plus ten policy flips under live traffic: PAP, policy contract, PDP hot swap with cache purge, analyser reload",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// exchange is one planned access request and, after the run, what happened
// to it. The issuing goroutine writes the decide fields, the event
// collector the settle fields; both are read only after the run joined.
type exchange struct {
	id     string
	tenant string
	due    time.Duration // offset from the start of the measured phase (open loops)
	req    *xacml.Request
	// tamperOp is the action the request carries on the wire when it is
	// rewritten in transit ("" for an honest exchange).
	tamperOp string

	start, decided time.Time
	dueAt          time.Time // when it was due: the schedule in an open loop, the issue time in a closed one
	enf            federation.Enforcement
	err            error
	decideSpan     int

	settled time.Time // first matched or alert event received
	events  []event
}

type event struct {
	typ string
	at  time.Time
}

type flip struct {
	at     time.Duration
	policy *xacml.PolicySet
}

// plan is everything a run feeds the fleet, fixed by (workload, seed,
// seconds).
type plan struct {
	spec      spec
	seed      int64
	policy    *xacml.PolicySet
	tenants   []string
	warmup    []*exchange
	exchanges []*exchange
	flips     []flip

	ac        *acPlan
	acIssuers []*acIssuer // the live streams: the warm-up consumes their head, the measured loop continues
	acKept    []acSample  // every acCheckEvery-th measured decision, for the reference check
}

// acPlan describes the acplane request streams. Requests are drawn while
// the loop runs (300 000 pre-built requests would be several hundred MB of
// maps and distort the memory metrics), so the plan holds the seeds.
type acPlan struct {
	params    xacml.GenParams
	decisions int
	warmup    int
}

func topology() *federation.Topology { return federation.SimpleTopology("faas", clouds) }

func edgeTenants() []string {
	var out []string
	for _, t := range topology().EdgeTenants() {
		out = append(out, t.Name)
	}
	return out
}

// buildPlan derives the inputs of one run. seconds scales the amount of
// work; the same (workload, seed, seconds) always yields the same plan.
func buildPlan(s spec, seed int64, seconds float64, warmup int) *plan {
	p := &plan{spec: s, seed: seed, tenants: edgeTenants()}
	work := int(math.Round(s.PerSecond * seconds))
	if work < 1 {
		work = 1
	}
	p.policy = makePolicy(s)
	if !s.Monitored {
		p.ac = &acPlan{params: acGenParams(), decisions: work, warmup: warmup}
		return p
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, subjects-1)
	roles := []string{"doctor", "nurse", "intern"}
	ops := []string{"read", "write"}
	mk := func(prefix string, i int) *exchange {
		role, op := roles[rng.Intn(len(roles))], ops[rng.Intn(len(ops))]
		id := prefix + strconv.Itoa(i)
		req := xacml.NewRequest(id).
			Add(xacml.CatSubject, "role", xacml.String(role)).
			Add(xacml.CatSubject, "id", xacml.String("u-"+strconv.FormatUint(zipf.Uint64(), 10))).
			Add(xacml.CatAction, "op", xacml.String(op)).
			Add(xacml.CatResource, "type", xacml.String("record"))
		return &exchange{id: id, tenant: p.tenants[rng.Intn(len(p.tenants))], req: req}
	}
	for i := 0; i < warmup; i++ {
		p.warmup = append(p.warmup, mk("w", i))
	}
	// A Poisson process conditioned on its count: the arrival instants of
	// `work` arrivals in the window are sorted uniforms. Drawing exponential
	// gaps instead would let the window itself vary by 1/sqrt(work) from
	// seed to seed, and with it every rate the run reports.
	var dues []float64
	if s.OpenLoop {
		for i := 0; i < work; i++ {
			dues = append(dues, rng.Float64()*seconds)
		}
		sort.Float64s(dues)
	}
	for i := 0; i < work; i++ {
		ex := mk("x", i)
		if s.OpenLoop {
			ex.due = time.Duration(dues[i] * float64(time.Second))
		}
		if rng.Float64() < s.TamperShare {
			ex.tamperOp = otherOp(requestOp(ex.req))
		}
		p.exchanges = append(p.exchanges, ex)
	}
	if s.Flips {
		// Ten flips evenly spread over the arrival window: every 3 s from
		// 1.5 s at the nominal 30 s, scaled with it.
		step := time.Duration(seconds / flipCount * float64(time.Second))
		for k := 0; k < flipCount; k++ {
			version := "v" + strconv.Itoa(k+2)
			ps := xacml.RestrictedPolicy(version)
			if k%2 == 1 {
				ps = xacml.StandardPolicy(version)
			}
			p.flips = append(p.flips, flip{at: step/2 + time.Duration(k)*step, policy: ps})
		}
	}
	return p
}

// acGenParams shapes the acplane policy: 8 policies of 25 rules over the
// generator's default vocabulary, large enough that evaluation, not the
// round trip, is what a decision-cache miss costs.
func acGenParams() xacml.GenParams {
	params := xacml.DefaultGenParams()
	params.Policies, params.Rules = 8, 25
	return params
}

// makePolicy builds the workload's initial policy set (version v1).
func makePolicy(s spec) *xacml.PolicySet {
	if !s.Monitored {
		return xacml.NewGenerator(42, acGenParams()).PolicySet("acplane", "v1")
	}
	return xacml.StandardPolicy("v1")
}

func requestOp(r *xacml.Request) string {
	return r.Get(xacml.CatAction, "op")[0].S
}

func otherOp(op string) string {
	if op == "read" {
		return "write"
	}
	return "read"
}

// rewrite is attack A1: the action is swapped on the wire between the
// PEP-side probe and the PDP.
func rewrite(r *xacml.Request, op string) *xacml.Request {
	r.Attrs[xacml.CatAction]["op"] = xacml.Bag{xacml.String(op)}
	return r
}

// acIssuer is one closed-loop issuer's seeded request stream: a coin per
// decision picks a pooled request (a decision-cache hit once warm) or a
// fresh one from the generator (a miss). The pool is private to the issuer
// because the PEP stamps IDs onto the request it is handed.
type acIssuer struct {
	rng   *rand.Rand
	gen   *xacml.Generator
	pool  []*xacml.Request
	label string
	n     int
}

func newACIssuer(ac *acPlan, seed int64, index int) *acIssuer {
	pool := xacml.NewGenerator(uint64(seed), ac.params)
	is := &acIssuer{
		rng:   rand.New(rand.NewSource(seed*31 + int64(index))),
		gen:   xacml.NewGenerator(uint64(seed)*1000003+uint64(index)+1, ac.params),
		label: "a" + strconv.Itoa(index) + "-",
	}
	for i := 0; i < acPoolSize; i++ {
		is.pool = append(is.pool, pool.Request(""))
	}
	return is
}

func (is *acIssuer) next() *xacml.Request {
	is.n++
	id := is.label + strconv.Itoa(is.n)
	if is.rng.Intn(2) == 0 {
		r := is.pool[is.rng.Intn(len(is.pool))]
		r.ID, r.TraceID = id, ""
		return r
	}
	return is.gen.Request(id)
}

// hash fingerprints the plan: the same (workload, seed, seconds) must give
// the same request sequence, tamper set and flip schedule.
func (p *plan) hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%s\n", p.spec.Name, p.seed, p.policy.Digest())
	for _, set := range [][]*exchange{p.warmup, p.exchanges} {
		for _, ex := range set {
			fmt.Fprintf(h, "%s|%s|%d|%s|%s\n", ex.id, ex.tenant, ex.due, ex.req.CanonicalBytes(), ex.tamperOp)
		}
	}
	for _, f := range p.flips {
		fmt.Fprintf(h, "flip|%d|%s|%s\n", f.at, f.policy.Version, f.policy.Digest())
	}
	if p.ac != nil {
		fmt.Fprintf(h, "ac|%d|%d\n", p.ac.decisions, p.ac.warmup)
		for i := 0; i < issuers; i++ {
			is := newACIssuer(p.ac, p.seed, i)
			for n := 0; n < 512; n++ {
				r := is.next()
				fmt.Fprintf(h, "%s|%s\n", r.ID, r.CanonicalBytes())
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
