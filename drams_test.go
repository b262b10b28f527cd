package drams_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"drams"
	"drams/internal/blockchain"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/federation"
	"drams/internal/xacml"
)

// testPolicy permits doctors to read records and denies everyone else.
func testPolicy(version string) *xacml.PolicySet {
	doctorRead := &xacml.Rule{
		ID:     "doctor-read",
		Effect: xacml.EffectPermit,
		Target: xacml.Target{AnyOf: []xacml.AnyOf{{AllOf: []xacml.AllOf{{Matches: []xacml.Match{
			{Op: xacml.CmpEq, Attr: xacml.Designator{Cat: xacml.CatSubject, ID: "role"}, Lit: xacml.String("doctor")},
			{Op: xacml.CmpEq, Attr: xacml.Designator{Cat: xacml.CatAction, ID: "op"}, Lit: xacml.String("read")},
		}}}}}},
	}
	defaultDeny := &xacml.Rule{ID: "default-deny", Effect: xacml.EffectDeny}
	pol := &xacml.Policy{ID: "records", Version: "1", Alg: xacml.FirstApplicable,
		Rules: []*xacml.Rule{doctorRead, defaultDeny}}
	return &xacml.PolicySet{ID: "root", Version: version, Alg: xacml.DenyUnlessPermit,
		Items: []xacml.PolicyItem{{Policy: pol}}}
}

// testDeployment opens the default two-cloud federation; opts go after the
// defaults, so they win.
func testDeployment(t *testing.T, opts ...drams.Option) *drams.Deployment {
	t.Helper()
	base := []drams.Option{
		drams.WithDifficulty(6),
		// The M3/verdict deadline must leave room for the whole pipeline
		// (request → decision → four logs mined → analyser verdict mined)
		// under concurrent load; 20 blocks × 15ms ≈ 300ms.
		drams.WithTimeoutBlocks(20),
		drams.WithEmptyBlockInterval(15 * time.Millisecond),
		drams.WithSeed(42),
	}
	dep, err := drams.Open(testPolicy("v1"), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	return dep
}

// tenantClient returns the tenant's Client or fails the test.
func tenantClient(t *testing.T, dep *drams.Deployment, tenant string) *drams.Client {
	t.Helper()
	client, err := dep.Client(tenant)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func doctorRequest(dep *drams.Deployment) *xacml.Request {
	return dep.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatAction, "op", xacml.String("read"))
}

func ctx20(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestCleanRequestPermittedAndMatched(t *testing.T) {
	dep := testDeployment(t)
	req := doctorRequest(dep)
	enf, err := tenantClient(t, dep, "tenant-1").Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatalf("doctor read = %s", enf.Decision)
	}
	if err := dep.WaitForMatched(ctx20(t), req.ID); err != nil {
		t.Fatal(err)
	}
	if alerts := dep.Monitor.AlertsFor(req.ID); len(alerts) != 0 {
		t.Fatalf("clean request raised alerts: %v", alerts)
	}
}

func TestCleanDenyMatched(t *testing.T) {
	dep := testDeployment(t)
	req := dep.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("intern")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	enf, err := tenantClient(t, dep, "tenant-2").Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if enf.Permitted() {
		t.Fatal("intern was permitted")
	}
	if err := dep.WaitForMatched(ctx20(t), req.ID); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsEnforcementOverride(t *testing.T) {
	dep := testDeployment(t)
	// Compromised PEP grants everything regardless of the decision (A3).
	if err := dep.TamperPEP("tenant-1", &drams.Tamper{
		Enforce: func(xacml.Decision) xacml.Decision { return xacml.Permit },
	}); err != nil {
		t.Fatal(err)
	}
	req := dep.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("intern")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	enf, err := tenantClient(t, dep, "tenant-1").Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatal("attack precondition failed: PEP should have granted")
	}
	alert, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertEnforcementMismatch)
	if err != nil {
		t.Fatal(err)
	}
	if alert.Tenant != "tenant-1" {
		t.Fatalf("alert tenant = %q", alert.Tenant)
	}
}

func TestDetectsResponseTamper(t *testing.T) {
	dep := testDeployment(t)
	// Response flipped in transit (A2).
	if err := dep.TamperPEP("tenant-1", &drams.Tamper{
		Response: func(res xacml.Result) xacml.Result {
			if res.Decision == xacml.Deny {
				res.Decision = xacml.Permit
			}
			return res
		},
	}); err != nil {
		t.Fatal(err)
	}
	req := dep.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("intern")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	if _, err := tenantClient(t, dep, "tenant-1").Decide(ctx20(t), req); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertResponseTampered); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsRequestTamper(t *testing.T) {
	dep := testDeployment(t)
	// Privilege escalation in transit: intern request rewritten to claim
	// the doctor role (A1).
	if err := dep.TamperPEP("tenant-2", &drams.Tamper{
		Request: func(req *xacml.Request) *xacml.Request {
			out := xacml.NewRequest(req.ID)
			out.Add(xacml.CatSubject, "role", xacml.String("doctor"))
			out.Add(xacml.CatAction, "op", xacml.String("read"))
			return out
		},
	}); err != nil {
		t.Fatal(err)
	}
	req := dep.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("intern")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	enf, err := tenantClient(t, dep, "tenant-2").Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatal("attack precondition failed: escalated request should be permitted")
	}
	if _, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertRequestTampered); err != nil {
		t.Fatal(err)
	}
}

// flipEvaluator models a compromised PDP evaluation process (A4).
type flipEvaluator struct{ inner xacml.Evaluator }

func (f flipEvaluator) Evaluate(r *xacml.Request) (xacml.Result, error) {
	res, err := f.inner.Evaluate(r)
	if err != nil {
		return res, err
	}
	switch res.Decision {
	case xacml.Permit:
		res.Decision = xacml.Deny
	default:
		res.Decision = xacml.Permit
	}
	return res, nil
}

func TestDetectsCompromisedPDP(t *testing.T) {
	dep := testDeployment(t)
	if err := dep.CompromisePDP(func(inner xacml.Evaluator) xacml.Evaluator {
		return flipEvaluator{inner: inner}
	}); err != nil {
		t.Fatal(err)
	}
	client := tenantClient(t, dep, "tenant-1")
	req := doctorRequest(dep)
	enf, err := client.Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if enf.Permitted() {
		t.Fatal("attack precondition failed: flipped PDP should deny the doctor")
	}
	if _, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertDecisionIncorrect); err != nil {
		t.Fatal(err)
	}
	// Restoring the honest PDP stops the alerts.
	if err := dep.CompromisePDP(nil); err != nil {
		t.Fatal(err)
	}
	req2 := doctorRequest(dep)
	if _, err := client.Decide(ctx20(t), req2); err != nil {
		t.Fatal(err)
	}
	if err := dep.WaitForMatched(ctx20(t), req2.ID); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsPolicySubstitution(t *testing.T) {
	dep := testDeployment(t)
	// The PDP is made to evaluate a permit-everything policy that was
	// never anchored by the PAP (A5).
	evil := &xacml.PolicySet{ID: "root", Version: "evil", Alg: xacml.PermitUnlessDeny,
		Items: []xacml.PolicyItem{{Policy: &xacml.Policy{ID: "open", Version: "1",
			Alg: xacml.FirstApplicable, Rules: []*xacml.Rule{{ID: "p", Effect: xacml.EffectPermit}}}}}}
	evilPDP := xacml.NewPDP(evil)
	if err := dep.CompromisePDP(func(xacml.Evaluator) xacml.Evaluator { return evilPDP }); err != nil {
		t.Fatal(err)
	}

	req := dep.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("intern")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	enf, err := tenantClient(t, dep, "tenant-1").Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatal("attack precondition failed: evil policy should permit")
	}
	if _, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertPolicyTampered); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsRequestSuppression(t *testing.T) {
	dep := testDeployment(t)
	if err := dep.TamperPEP("tenant-1", &drams.Tamper{DropRequest: true}); err != nil {
		t.Fatal(err)
	}
	req := doctorRequest(dep)
	_, err := tenantClient(t, dep, "tenant-1").Decide(ctx20(t), req)
	if !errors.Is(err, federation.ErrRequestDropped) {
		t.Fatalf("expected drop, got %v", err)
	}
	alert, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertMessageSuppressed)
	if err != nil {
		t.Fatal(err)
	}
	if alert.ReqID != req.ID {
		t.Fatalf("alert = %+v", alert)
	}
}

func TestDetectsResponseSuppression(t *testing.T) {
	dep := testDeployment(t)
	if err := dep.TamperPEP("tenant-2", &drams.Tamper{DropResponse: true}); err != nil {
		t.Fatal(err)
	}
	req := doctorRequest(dep)
	if _, err := tenantClient(t, dep, "tenant-2").Decide(ctx20(t), req); !errors.Is(err, federation.ErrRequestDropped) {
		t.Fatalf("expected drop, got %v", err)
	}
	if _, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertMessageSuppressed); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorOffStillEnforces(t *testing.T) {
	dep := testDeployment(t, drams.WithMonitoring(false))
	req := doctorRequest(dep)
	enf, err := tenantClient(t, dep, "tenant-1").Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatalf("decision = %s", enf.Decision)
	}
	if _, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertRequestTampered); err == nil {
		t.Fatal("WaitForAlert should fail with monitoring off")
	}
}

func TestPolicyUpdateFlow(t *testing.T) {
	dep := testDeployment(t)
	// v2 also lets nurses read.
	v2 := testPolicy("v2")
	nurseRule := &xacml.Rule{
		ID:     "nurse-read",
		Effect: xacml.EffectPermit,
		Target: xacml.Target{AnyOf: []xacml.AnyOf{{AllOf: []xacml.AllOf{{Matches: []xacml.Match{
			{Op: xacml.CmpEq, Attr: xacml.Designator{Cat: xacml.CatSubject, ID: "role"}, Lit: xacml.String("nurse")},
			{Op: xacml.CmpEq, Attr: xacml.Designator{Cat: xacml.CatAction, ID: "op"}, Lit: xacml.String("read")},
		}}}}}},
	}
	pol := v2.Items[0].Policy
	pol.Rules = append([]*xacml.Rule{nurseRule}, pol.Rules...)
	if err := dep.PublishPolicy(v2); err != nil {
		t.Fatal(err)
	}
	req := dep.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("nurse")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	enf, err := tenantClient(t, dep, "tenant-1").Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatalf("nurse under v2 = %s", enf.Decision)
	}
	// The exchange must still match cleanly under the new version.
	if err := dep.WaitForMatched(ctx20(t), req.ID); err != nil {
		t.Fatal(err)
	}
}

// TestMineAllConvergesWithCompetingMiners: every cloud mines, the paper's
// PoW federation, so forks are routine. Clean concurrent traffic driven
// until the chain passes minHeight must all match with no alert, the
// replicas must agree on the state at a common head, and reorgs happen but
// each costs its depth: a reorg applies at most the blocks it undid plus
// one, never the chain from genesis.
func TestMineAllConvergesWithCompetingMiners(t *testing.T) {
	const workers, minHeight = 4, 300
	dep := testDeployment(t, drams.WithMineAll(), drams.WithTimeoutBlocks(40))
	var nodes []*blockchain.Node
	for _, c := range dep.Topology().Clouds {
		n, err := dep.Node(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	clients := []*drams.Client{tenantClient(t, dep, "tenant-1"), tenantClient(t, dep, "tenant-2")}
	ctx := ctx20(t)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		exchanges int
		failures  []error
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for nodes[0].Chain().Height() < minHeight && ctx.Err() == nil {
				req := doctorRequest(dep)
				_, err := clients[w%2].Decide(ctx, req)
				if err == nil {
					err = dep.WaitForMatched(ctx, req.ID)
				}
				mu.Lock()
				exchanges++
				if err != nil {
					failures = append(failures, fmt.Errorf("request %s: %w", req.ID, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(failures...); err != nil {
		t.Fatalf("%d of %d exchanges did not match: %v", len(failures), exchanges, err)
	}
	if h := nodes[0].Chain().Height(); h < minHeight {
		t.Fatalf("height %d after %d exchanges, want %d", h, exchanges, minHeight)
	}

	// Replicas agree on the state at a common head (allow gossip to settle).
	// Each member's head and digest are read twice around the digest, so a
	// pair is only compared when neither head moved in between.
	read := func(n *blockchain.Node) (crypto.Digest, crypto.Digest, bool) {
		head, _ := n.Chain().Head()
		digest := n.Chain().StateDigest()
		again, _ := n.Chain().Head()
		return head, digest, head == again
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		h1, d1, ok1 := read(nodes[0])
		h2, d2, ok2 := read(nodes[1])
		if ok1 && ok2 && h1 == h2 {
			if d1 != d2 {
				t.Fatalf("replicas at head %s disagree on the state", h1.Short())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("multi-miner replicas did not reach a common head")
		}
	}
	if n := dep.Monitor.Stats().AlertsSeen; n != 0 {
		t.Fatalf("clean multi-miner traffic raised %d alerts", n)
	}
	var reorgs, undone, applied int64
	for _, n := range nodes {
		st := n.Stats()
		reorgs, undone, applied = reorgs+st.Reorgs, undone+st.ReorgBlocksUndone, applied+st.ReorgBlocksApplied
	}
	t.Logf("%d exchanges to height %d: %d reorgs undid %d blocks and applied %d", exchanges, nodes[0].Chain().Height(), reorgs, undone, applied)
	if reorgs == 0 {
		t.Fatal("no reorg with every member mining: the row does not exercise one")
	}
	if applied > undone+reorgs {
		t.Fatalf("%d reorgs applied %d blocks, more than the %d they undid plus one each", reorgs, applied, undone)
	}
}

// TestManyConcurrentRequestsAllMatch is Figure 1 under mixed load: doctor
// reads (Permit) and intern reads (Deny) alternate across both edge
// tenants, concurrently; each is enforced as the policy decides, and every
// exchange matches on-chain with no alert.
func TestManyConcurrentRequestsAllMatch(t *testing.T) {
	// The stress load tests pipeline completeness, not detection latency:
	// give the verdict/M3 window enough slack to absorb the ~10× slowdown
	// of instrumented runs (-race), where 20 concurrent analyser verdicts
	// can overrun a 300 ms deadline.
	dep := testDeployment(t, drams.WithTimeoutBlocks(80))
	const n = 20
	reqs := make([]*xacml.Request, n)
	want := make([]xacml.Decision, n)
	for i := 0; i < n; i++ {
		if (i/2)%2 == 0 {
			reqs[i], want[i] = doctorRequest(dep), xacml.Permit
		} else {
			reqs[i] = dep.NewRequest().
				Add(xacml.CatSubject, "role", xacml.String("intern")).
				Add(xacml.CatAction, "op", xacml.String("read"))
			want[i] = xacml.Deny
		}
	}
	type result struct {
		i   int
		enf drams.Enforcement
		err error
	}
	resCh := make(chan result, n)
	clients := []*drams.Client{tenantClient(t, dep, "tenant-1"), tenantClient(t, dep, "tenant-2")}
	decideCtx := ctx20(t)
	for i := 0; i < n; i++ {
		go func(i int) {
			enf, err := clients[i%2].Decide(decideCtx, reqs[i])
			resCh <- result{i, enf, err}
		}(i)
	}
	for range n {
		r := <-resCh
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.enf.Decision != want[r.i] {
			t.Fatalf("request %d: enforced %s, want %s", r.i, r.enf.Decision, want[r.i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := dep.WaitForMatched(ctx, reqs[i].ID); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := dep.Monitor.Stats()
	if st.Matched < n {
		t.Fatalf("matched %d < %d", st.Matched, n)
	}
	if st.AlertsSeen != 0 {
		t.Fatalf("clean load raised %d alerts: %v", st.AlertsSeen, dep.Monitor.Alerts())
	}
}

// A closed-loop burst on a three-cloud fleet: every member's analyser,
// monitor and policy watcher follow their node's head, and none of them
// falls so far behind that a block is skipped.
func TestClosedLoopBurstFollowersMissNothing(t *testing.T) {
	dep := testDeployment(t, drams.WithTopology(federation.SimpleTopology("burst", 3)), drams.WithTimeoutBlocks(80))
	const perWorker = 16
	tenants := []string{"tenant-1", "tenant-2", "tenant-3"}
	var (
		mu  sync.Mutex
		ids []string
	)
	ctx := ctx20(t)
	errCh := make(chan error, 2*len(tenants))
	for _, tenant := range tenants {
		client := tenantClient(t, dep, tenant)
		for range 2 {
			go func() {
				for range perWorker {
					req := doctorRequest(dep)
					if _, err := client.Decide(ctx, req); err != nil {
						errCh <- err
						return
					}
					mu.Lock()
					ids = append(ids, req.ID)
					mu.Unlock()
				}
				errCh <- nil
			}()
		}
	}
	for range cap(errCh) {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range ids {
		if err := dep.WaitForMatched(waitCtx, id); err != nil {
			t.Fatalf("request %s: %v", id, err)
		}
	}
	if st := dep.Monitor.Stats(); st.Matched != int64(len(ids)) || st.AlertsSeen != 0 {
		t.Fatalf("%d of %d exchanges matched, %d alerts: %v", st.Matched, len(ids), st.AlertsSeen, dep.Monitor.Alerts())
	}
	for _, cloud := range []string{"cloud-1", "cloud-2", "cloud-3"} {
		node, err := dep.Node(cloud)
		if err != nil {
			t.Fatal(err)
		}
		if n := node.Stats().EventsDropped; n != 0 {
			t.Fatalf("%s: a follower skipped %d blocks", cloud, n)
		}
	}
}
