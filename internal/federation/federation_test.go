package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"drams/internal/netsim"
	"drams/internal/xacml"
)

func TestSimpleTopologyShape(t *testing.T) {
	top := SimpleTopology("f", 3)
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(top.Clouds) != 3 {
		t.Fatalf("clouds = %d", len(top.Clouds))
	}
	infra, err := top.InfrastructureTenant()
	if err != nil || infra.Name != "infrastructure" || infra.Cloud != "cloud-1" {
		t.Fatalf("infra = %+v, %v", infra, err)
	}
	edges := top.EdgeTenants()
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	onCloud1 := top.TenantsOnCloud("cloud-1")
	if len(onCloud1) != 2 { // tenant-1 + infrastructure
		t.Fatalf("cloud-1 tenants = %v", onCloud1)
	}
}

func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		top  Topology
		want error
	}{
		{"no infra", Topology{
			Clouds:  []Cloud{{Name: "c"}},
			Tenants: []Tenant{{Name: "t", Cloud: "c"}},
		}, ErrNoInfrastructure},
		{"two infra", Topology{
			Clouds: []Cloud{{Name: "c"}},
			Tenants: []Tenant{
				{Name: "t", Cloud: "c"},
				{Name: "i1", Cloud: "c", Infrastructure: true},
				{Name: "i2", Cloud: "c", Infrastructure: true},
			},
		}, ErrNoInfrastructure},
		{"unknown cloud", Topology{
			Clouds:  []Cloud{{Name: "c"}},
			Tenants: []Tenant{{Name: "t", Cloud: "ghost"}, {Name: "i", Cloud: "c", Infrastructure: true}},
		}, ErrUnknownCloud},
		{"dup tenant", Topology{
			Clouds: []Cloud{{Name: "c"}},
			Tenants: []Tenant{
				{Name: "t", Cloud: "c"}, {Name: "t", Cloud: "c"},
				{Name: "i", Cloud: "c", Infrastructure: true},
			},
		}, ErrDuplicateName},
		{"dup cloud", Topology{
			Clouds: []Cloud{{Name: "c"}, {Name: "c"}},
		}, ErrDuplicateName},
		{"no edges", Topology{
			Clouds:  []Cloud{{Name: "c"}},
			Tenants: []Tenant{{Name: "i", Cloud: "c", Infrastructure: true}},
		}, ErrNoEdgeTenants},
	}
	for _, c := range cases {
		if err := c.top.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

// probeRecorder records hook invocations. A side that ended without a
// response (its hook called with ok=false) is counted in pepFailed / pdpFailed.
type probeRecorder struct {
	mu          sync.Mutex
	pepSent     []*xacml.Request
	pepReceived []xacml.Decision
	pepEnforced []xacml.Decision
	pepFailed   int
	pdpReceived []*xacml.Request
	pdpOrigins  []string // the tenant each PDP-side observation names as its origin
	pdpSent     []xacml.Decision
	pdpFailed   int
	twice       int // sides whose hook ran more than once
}

func (p *probeRecorder) PEPRequestSent(req *xacml.Request) func(xacml.Result, xacml.Decision, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pepSent = append(p.pepSent, req)
	calls := 0
	return func(res xacml.Result, enforced xacml.Decision, ok bool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if calls++; calls > 1 {
			p.twice++
		}
		if !ok {
			p.pepFailed++
			return
		}
		p.pepReceived = append(p.pepReceived, res.Decision)
		p.pepEnforced = append(p.pepEnforced, enforced)
	}
}

func (p *probeRecorder) PDPRequestReceived(req *xacml.Request, origin string) func(xacml.Result, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pdpReceived = append(p.pdpReceived, req.Clone()) // req is pooled: valid until the hook returns
	p.pdpOrigins = append(p.pdpOrigins, origin)
	calls := 0
	return func(res xacml.Result, ok bool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if calls++; calls > 1 {
			p.twice++
		}
		if !ok {
			p.pdpFailed++
			return
		}
		p.pdpSent = append(p.pdpSent, res.Decision)
	}
}

// sides reports how many sides were opened, how many of them had their hook
// called exactly once, how many more than once, and how many ended without
// a response at the PEP and at the PDP.
func (p *probeRecorder) sides() (opened, closed, twice, pepFailed, pdpFailed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pepSent) + len(p.pdpReceived),
		len(p.pepEnforced) + p.pepFailed + len(p.pdpSent) + p.pdpFailed - p.twice,
		p.twice, p.pepFailed, p.pdpFailed
}

func acPolicy() *xacml.PolicySet {
	permit := &xacml.Rule{ID: "permit-doctor", Effect: xacml.EffectPermit,
		Target: xacml.TargetMatching(xacml.CatSubject, "role", xacml.String("doctor"))}
	deny := &xacml.Rule{ID: "deny", Effect: xacml.EffectDeny}
	return &xacml.PolicySet{ID: "root", Version: "v1", Alg: xacml.DenyUnlessPermit,
		Items: []xacml.PolicyItem{{Policy: &xacml.Policy{ID: "p", Version: "1",
			Alg: xacml.FirstApplicable, Rules: []*xacml.Rule{permit, deny}}}}}
}

type acEnv struct {
	net *netsim.Network
	pdp *PDPService
	pep *PEPService
}

func newACEnv(t *testing.T) (*acEnv, *probeRecorder) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 4})
	t.Cleanup(func() { net.Close() })
	pdpSvc, err := NewPDPService(net, xacml.NewPDP(acPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	pep, err := NewPEPService(net, "tenant-1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rec := &probeRecorder{}
	pdpSvc.SetProbe(rec)
	pep.SetProbe(rec)
	return &acEnv{net: net, pdp: pdpSvc, pep: pep}, rec
}

func docReq(id, role string) *xacml.Request {
	return xacml.NewRequest(id).Add(xacml.CatSubject, "role", xacml.String(role))
}

func TestPEPPDPFlow(t *testing.T) {
	env, rec := newACEnv(t)
	enf, err := env.pep.Decide(context.Background(), docReq("r1", "doctor"))
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatalf("decision = %s", enf.Decision)
	}
	enf2, err := env.pep.Decide(context.Background(), docReq("r2", "intern"))
	if err != nil {
		t.Fatal(err)
	}
	if enf2.Permitted() {
		t.Fatal("intern permitted")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.pepSent) != 2 || len(rec.pdpReceived) != 2 || len(rec.pdpSent) != 2 || len(rec.pepEnforced) != 2 {
		t.Fatalf("probe counts: %d %d %d %d", len(rec.pepSent), len(rec.pdpReceived), len(rec.pdpSent), len(rec.pepEnforced))
	}
	if rec.pepEnforced[0] != xacml.Permit || rec.pepEnforced[1] != xacml.Deny {
		t.Fatalf("enforced = %v", rec.pepEnforced)
	}
	// The PDP names the caller's tenant, read off its pep@<tenant> address.
	if len(rec.pdpOrigins) != 2 || rec.pdpOrigins[0] != "tenant-1" || rec.pdpOrigins[1] != "tenant-1" {
		t.Fatalf("PDP-side origins = %v, want tenant-1 twice", rec.pdpOrigins)
	}
	if env.pdp.Stats().Evaluations != 2 {
		t.Fatalf("pdp evaluations = %d", env.pdp.Stats().Evaluations)
	}
	st := env.pep.Stats()
	if st.Requests != 2 || st.Permits != 1 || st.Denies != 1 {
		t.Fatalf("pep stats = %+v", st)
	}
}

func TestTamperHooksObservableOrder(t *testing.T) {
	env, rec := newACEnv(t)
	env.pep.SetTamper(&Tamper{
		Request: func(req *xacml.Request) *xacml.Request {
			out := xacml.NewRequest(req.ID)
			out.Add(xacml.CatSubject, "role", xacml.String("doctor"))
			return out
		},
	})
	enf, err := env.pep.Decide(context.Background(), docReq("r1", "intern"))
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatal("escalated request should be permitted")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// The PEP-side probe saw the original; the PDP-side probe the forged.
	if !rec.pepSent[0].Get(xacml.CatSubject, "role").Contains(xacml.String("intern")) {
		t.Fatal("pep probe saw the tampered request")
	}
	if !rec.pdpReceived[0].Get(xacml.CatSubject, "role").Contains(xacml.String("doctor")) {
		t.Fatal("pdp probe did not see the tampered request")
	}
}

func TestTamperEnforceAndResponse(t *testing.T) {
	env, rec := newACEnv(t)
	env.pep.SetTamper(&Tamper{
		Enforce: func(xacml.Decision) xacml.Decision { return xacml.Permit },
	})
	enf, err := env.pep.Decide(context.Background(), docReq("r1", "intern"))
	if err != nil || !enf.Permitted() {
		t.Fatalf("override failed: %v %v", enf, err)
	}
	rec.mu.Lock()
	if rec.pepReceived[0] != xacml.Deny || rec.pepEnforced[0] != xacml.Permit {
		t.Fatalf("probe saw received=%s enforced=%s", rec.pepReceived[0], rec.pepEnforced[0])
	}
	rec.mu.Unlock()

	env.pep.SetTamper(&Tamper{
		Response: func(res xacml.Result) xacml.Result {
			res.Decision = xacml.Permit
			return res
		},
	})
	enf, err = env.pep.Decide(context.Background(), docReq("r2", "intern"))
	if err != nil || !enf.Permitted() {
		t.Fatalf("response tamper failed: %v %v", enf, err)
	}
	// Clearing restores honesty.
	env.pep.SetTamper(nil)
	enf, err = env.pep.Decide(context.Background(), docReq("r3", "intern"))
	if err != nil || enf.Permitted() {
		t.Fatalf("tamper not cleared: %v %v", enf, err)
	}
}

func TestTamperDrops(t *testing.T) {
	env, rec := newACEnv(t)
	env.pep.SetTamper(&Tamper{DropRequest: true})
	if _, err := env.pep.Decide(context.Background(), docReq("r1", "doctor")); !errors.Is(err, ErrRequestDropped) {
		t.Fatalf("got %v", err)
	}
	rec.mu.Lock()
	if len(rec.pepSent) != 1 || len(rec.pdpReceived) != 0 || rec.pepFailed != 1 {
		t.Fatalf("drop-request probes: sent=%d pdp=%d failed=%d", len(rec.pepSent), len(rec.pdpReceived), rec.pepFailed)
	}
	rec.mu.Unlock()

	env.pep.SetTamper(&Tamper{DropResponse: true})
	if _, err := env.pep.Decide(context.Background(), docReq("r2", "doctor")); !errors.Is(err, ErrRequestDropped) {
		t.Fatalf("got %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.pdpSent) != 1 || len(rec.pepEnforced) != 0 || rec.pepFailed != 2 {
		t.Fatalf("drop-response probes: pdpSent=%d enforced=%d failed=%d", len(rec.pdpSent), len(rec.pepEnforced), rec.pepFailed)
	}
}

// failingEvaluator refuses every request.
type failingEvaluator struct{}

func (failingEvaluator) Evaluate(*xacml.Request) (xacml.Result, error) {
	return xacml.Result{}, errors.New("evaluator down")
}

// Whatever ends an exchange, each side the probe was shown is closed exactly
// once, so an agent holding the request-side observation is never left with
// it: suppression either way, a call that cannot reach the PDP, an evaluator
// that fails, and the same through DecideBatch's shared pipeline.
func TestEveryPathClosesEachSideOnce(t *testing.T) {
	cases := []struct {
		name string
		// arrange breaks the exchange and returns how to mend it.
		arrange func(env *acEnv) (mend func())
		// pepFailed, pdpFailed: sides that must end without a response, per request.
		pepFailed, pdpFailed int
	}{
		{"honest", func(*acEnv) func() { return func() {} }, 0, 0},
		{"drop-request", func(env *acEnv) func() {
			env.pep.SetTamper(&Tamper{DropRequest: true})
			return func() { env.pep.SetTamper(nil) }
		}, 1, 0},
		{"drop-response", func(env *acEnv) func() {
			env.pep.SetTamper(&Tamper{DropResponse: true})
			return func() { env.pep.SetTamper(nil) }
		}, 1, 0},
		{"call-error", func(env *acEnv) func() {
			env.net.Partition([]string{PEPAddr("tenant-1")}, []string{PDPAddr})
			return env.net.Heal
		}, 1, 0},
		{"evaluator-error", func(env *acEnv) func() {
			env.pdp.SetEvaluator(failingEvaluator{})
			return func() { env.pdp.SetEvaluator(xacml.NewPDP(acPolicy())) }
		}, 1, 1},
	}
	for _, c := range cases {
		for _, batch := range []int{0, 3} {
			env, rec := newACEnv(t)
			mend := c.arrange(env)
			wait := 10 * time.Second
			if c.name == "call-error" {
				wait = 50 * time.Millisecond // nothing will answer
			}
			ctx, cancel := context.WithTimeout(context.Background(), wait)
			n := 1
			if batch == 0 {
				_, err := env.pep.Decide(ctx, docReq("r", "doctor"))
				if (err != nil) != (c.pepFailed > 0) {
					t.Fatalf("%s: Decide err = %v", c.name, err)
				}
			} else {
				n = batch
				reqs := make([]*xacml.Request, n)
				for i := range reqs {
					reqs[i] = docReq(fmt.Sprintf("r%d", i), "doctor")
				}
				out, err := env.pep.DecideBatch(ctx, reqs)
				if (err != nil) != (c.pepFailed > 0) || len(out) != n {
					t.Fatalf("%s: DecideBatch err = %v, %d results", c.name, err, len(out))
				}
			}
			cancel()
			mend()
			opened, closed, twice, pepFailed, pdpFailed := rec.sides()
			if opened != closed || twice != 0 {
				t.Fatalf("%s (batch %d): %d sides opened, %d closed once, %d closed twice", c.name, batch, opened, closed, twice)
			}
			if pepFailed != n*c.pepFailed || pdpFailed != n*c.pdpFailed {
				t.Fatalf("%s (batch %d): sides ended without a response: pep %d pdp %d, want %d and %d",
					c.name, batch, pepFailed, pdpFailed, n*c.pepFailed, n*c.pdpFailed)
			}
			if st := env.pep.Stats(); st.Failures != int64(n*c.pepFailed) {
				t.Fatalf("%s (batch %d): pep stats = %+v", c.name, batch, st)
			}
		}
	}
}

func TestPEPTimeoutOnPartition(t *testing.T) {
	env, _ := newACEnv(t)
	env.net.Partition([]string{PEPAddr("tenant-1")}, []string{PDPAddr})
	_, err := env.pep.Decide(context.Background(), docReq("r1", "doctor"))
	if err == nil {
		t.Fatal("partitioned PEP succeeded")
	}
	if st := env.pep.Stats(); st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPDPServiceEvaluatorSwap(t *testing.T) {
	env, _ := newACEnv(t)
	// Swap in a PDP with a permit-everything policy.
	open := &xacml.PolicySet{ID: "open", Version: "e", Alg: xacml.PermitUnlessDeny,
		Items: []xacml.PolicyItem{{Policy: &xacml.Policy{ID: "p", Version: "1",
			Alg: xacml.FirstApplicable, Rules: []*xacml.Rule{{ID: "p", Effect: xacml.EffectPermit}}}}}}
	env.pdp.SetEvaluator(xacml.NewPDP(open))
	enf, err := env.pep.Decide(context.Background(), docReq("r1", "intern"))
	if err != nil || !enf.Permitted() {
		t.Fatalf("swap ineffective: %v %v", enf, err)
	}
}

func TestDuplicatePEPRegistration(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 1})
	defer net.Close()
	if _, err := NewPEPService(net, "t", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPEPService(net, "t", 0); err == nil {
		t.Fatal("duplicate PEP accepted")
	}
}

func TestEnforcementPermitted(t *testing.T) {
	for d, want := range map[xacml.Decision]bool{
		xacml.Permit: true, xacml.Deny: false, xacml.NotApplicable: false, xacml.IndeterminateDP: false,
	} {
		if (Enforcement{Decision: d}).Permitted() != want {
			t.Errorf("Permitted(%s) != %v", d, want)
		}
	}
}
