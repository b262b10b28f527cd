package drams_test

import (
	"errors"
	"testing"

	"drams"
	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/pap"
	"drams/internal/xacml"
)

// restrictedTestPolicy denies the doctor-read request testPolicy permits.
func restrictedTestPolicy(version string) *xacml.PolicySet {
	defaultDeny := &xacml.Rule{ID: "default-deny", Effect: xacml.EffectDeny}
	pol := &xacml.Policy{ID: "records", Version: "1", Alg: xacml.FirstApplicable,
		Rules: []*xacml.Rule{defaultDeny}}
	return &xacml.PolicySet{ID: "root", Version: version, Alg: xacml.DenyUnlessPermit,
		Items: []xacml.PolicyItem{{Policy: pol}}}
}

// TestAdminUpdatePolicyHotReload drives the full runtime administration
// flow through the public API: hook the rollout events, publish a
// restricting v2 through Deployment.Admin, watch its activation arrive, and
// check the same request flips Permit → Deny with the decision cache
// invalidated — then roll back to v1 and watch it flip again.
func TestAdminUpdatePolicyHotReload(t *testing.T) {
	dep := testDeployment(t)
	ctx := ctx20(t)

	// The hook runs on the watcher goroutine: it must not block, and the
	// buffer holds the two flips below.
	rollouts := make(chan drams.PolicyEvent, 2)
	dep.OnPolicyEvent(func(ev drams.PolicyEvent) {
		select {
		case rollouts <- ev:
		default:
		}
	})
	nextActivation := func(version string) {
		t.Helper()
		select {
		case ev := <-rollouts:
			if ev.Kind != pap.EventActivated || ev.Version != version {
				t.Fatalf("rollout event = %+v, want %s activated", ev, version)
			}
		case <-ctx.Done():
			t.Fatalf("no %s activation event", version)
		}
	}

	// The boot-time v1 activation fired before the hook existed: the
	// watcher's stats and the on-chain history carry it.
	if st := dep.PolicyStats(); st.Version != "v1" || st.Activations != 1 {
		t.Fatalf("boot policy stats = %+v", st)
	}
	admin, err := dep.Admin("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	if hist := admin.History(); len(hist) != 1 || hist[0].Version != "v1" {
		t.Fatalf("boot history = %+v", hist)
	}
	if got := admin.PolicyVersion(); got != "v1" {
		t.Fatalf("active version = %q", got)
	}

	// Permit under v1.
	client := tenantClient(t, dep, "tenant-1")
	req := doctorRequest(dep)
	enf, err := client.Decide(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() || enf.PolicyVersion != "v1" {
		t.Fatalf("v1 enforcement = %+v", enf)
	}

	// Publish v2 from an edge tenant's admin handle.
	if err := admin.UpdatePolicy(ctx, restrictedTestPolicy("v2"), drams.UpdateOptions{ActivateDelta: 2}); err != nil {
		t.Fatal(err)
	}
	nextActivation("v2")

	// The first batch decided after the flip sees the swapped PDP on every item.
	batch := []*xacml.Request{doctorRequest(dep), doctorRequest(dep), doctorRequest(dep)}
	enfs, err := client.DecideBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, enf := range enfs {
		if enf.Permitted() || enf.PolicyVersion != "v2" {
			t.Fatalf("v2 batch item %d = %+v", i, enf)
		}
	}
	enf, err = client.Decide(ctx, doctorRequest(dep))
	if err != nil {
		t.Fatal(err)
	}
	if enf.Permitted() || enf.PolicyVersion != "v2" {
		t.Fatalf("v2 enforcement = %+v", enf)
	}

	st := dep.PolicyStats()
	if st.Version != "v2" || st.Activations != 2 {
		t.Fatalf("policy stats = %+v", st)
	}

	// Roll back to v1: decisions flip again, history shows all three
	// activations on-chain.
	if err := admin.Rollback(ctx, "v1", drams.UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	nextActivation("v1")
	enf, err = client.Decide(ctx, doctorRequest(dep))
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() || enf.PolicyVersion != "v1" {
		t.Fatalf("post-rollback enforcement = %+v", enf)
	}
	hist := admin.History()
	if len(hist) != 3 || hist[0].Version != "v1" || hist[1].Version != "v2" || hist[2].Version != "v1" {
		t.Fatalf("history = %+v", hist)
	}

	// The policy bytes round-trip from chain state.
	ps, err := admin.PolicySet("v2")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Digest() != restrictedTestPolicy("v2").Digest() {
		t.Fatal("chain-stored v2 differs from the published set")
	}
}

// TestAdminConflictingVersionRejected re-publishes an anchored version with
// different content: the admin gets ErrPolicyConflict and the fleet keeps
// the original digest.
func TestAdminConflictingVersionRejected(t *testing.T) {
	dep := testDeployment(t)
	admin, err := dep.Admin("infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	err = admin.UpdatePolicy(ctx20(t), restrictedTestPolicy("v1"), drams.UpdateOptions{})
	if !errors.Is(err, pap.ErrPolicyConflict) {
		t.Fatalf("conflict err = %v", err)
	}
	if d, _ := admin.PolicyDigest("v1"); d != testPolicy("v1").Digest() {
		t.Fatal("anchored digest changed")
	}
}

// TestExchangesMatchAcrossPolicyFlip proves the M6 grace window: a request
// decided under v1 whose logs land around the v2 flip still matches
// cleanly, and post-flip requests match under v2.
func TestExchangesMatchAcrossPolicyFlip(t *testing.T) {
	dep := testDeployment(t)
	ctx := ctx20(t)

	// Decide under v1 and immediately publish v2 so the exchange's logs
	// race the activation.
	client := tenantClient(t, dep, "tenant-1")
	req := doctorRequest(dep)
	if _, err := client.Decide(ctx, req); err != nil {
		t.Fatal(err)
	}
	if err := dep.PublishPolicy(restrictedTestPolicy("v2")); err != nil {
		t.Fatal(err)
	}
	if err := dep.WaitForMatched(ctx, req.ID); err != nil {
		t.Fatalf("v1-era exchange did not match across the flip: %v", err)
	}

	req2 := doctorRequest(dep)
	if _, err := client.Decide(ctx, req2); err != nil {
		t.Fatal(err)
	}
	if err := dep.WaitForMatched(ctx, req2.ID); err != nil {
		t.Fatalf("v2 exchange did not match: %v", err)
	}
	if alerts := dep.Monitor.AlertsFor(req.ID); len(alerts) != 0 {
		t.Fatalf("flip produced alerts: %v", alerts)
	}
}

// TestPolicyStateReplaysDeterministically replays the deployment's frozen
// best chain into a fresh replica built from the same ChainMaterial and
// demands identical contract state — proving a restarted member re-derives
// the exact policy lifecycle from the chain.
func TestPolicyStateReplaysDeterministically(t *testing.T) {
	dep := testDeployment(t)
	ctx := ctx20(t)

	admin, err := dep.Admin("infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.UpdatePolicy(ctx, restrictedTestPolicy("v2"), drams.UpdateOptions{ActivateDelta: 1}); err != nil {
		t.Fatal(err)
	}
	if err := admin.Rollback(ctx, "v1", drams.UpdateOptions{}); err != nil {
		t.Fatal(err)
	}

	// Freeze the chain, then replay it into a fresh node built from the
	// same deterministic material.
	src := dep.InfraNode().Chain()
	dep.Close()

	var tenants []string
	for _, ten := range dep.Topology().Tenants {
		tenants = append(tenants, ten.Name)
	}
	// testDeployment's seed, difficulty and Δ.
	material := drams.NewChainMaterial(42, tenants, drams.ChainParams{
		Difficulty:     6,
		TimeoutBlocks:  20,
		RequireVerdict: true,
	})
	replica := blockchain.NewChain(material.Chain)
	for _, h := range src.BestChainHashes() {
		if h == src.Genesis() {
			continue
		}
		b, ok := src.BlockByHash(h)
		if !ok {
			t.Fatalf("missing best-chain block %s", h.Short())
		}
		if err := replica.AddBlock(b); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	if replica.StateDigest() != src.StateDigest() {
		t.Fatalf("replayed digest %s != source %s",
			replica.StateDigest().Short(), src.StateDigest().Short())
	}
	var ver string
	replica.ReadState(core.PolicyContractName, func(st contract.StateDB) { ver, _, _ = core.ReadActivePolicy(st) })
	if ver != "v1" {
		t.Fatalf("replayed active version = %q", ver)
	}
}
