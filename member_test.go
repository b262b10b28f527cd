package drams_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drams"
	"drams/internal/blockchain"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/federation"
	"drams/internal/netsim"
	"drams/internal/trace"
	"drams/internal/transport"
	"drams/internal/transport/tcp"
	"drams/internal/xacml"
)

// sliceClouds are the clouds of federation.SimpleTopology("faas", 3);
// cloud-1 hosts tenant-1 and the infrastructure tenant.
var sliceClouds = []string{"cloud-1", "cloud-2", "cloud-3"}

// openSlice opens one cloud of the three-cloud federation as its own
// member. Δ outlasts the test: a decide attempted before a fresh TCP link
// has learned the PDP's address fails after its pep.request is logged, and
// that half-exchange must not reach its M3 deadline while the test asserts
// zero alerts on honest traffic.
func openSlice(t *testing.T, cloud string, tr transport.Transport, extra ...drams.Option) *drams.Deployment {
	t.Helper()
	opts := append([]drams.Option{
		drams.WithTopology(federation.SimpleTopology("faas", 3)),
		drams.WithTransport(tr),
		drams.WithSeed(42),
		drams.WithDifficulty(6),
		drams.WithTimeoutBlocks(4096),
		drams.WithEmptyBlockInterval(15 * time.Millisecond),
	}, extra...)
	dep, err := drams.OpenMember(testPolicy("v1"), cloud, opts...)
	if err != nil {
		t.Fatalf("open member %s: %v", cloud, err)
	}
	t.Cleanup(dep.Close)
	return dep
}

// decideThrough runs a doctor-read through the tenant's PEP on its own
// slice, retrying while the PDP's address is still unknown to a transport
// that has only just connected.
func decideThrough(t *testing.T, ctx context.Context, dep *drams.Deployment, tenant string) (string, drams.Enforcement) {
	t.Helper()
	client, err := dep.Client(tenant)
	if err != nil {
		t.Fatal(err)
	}
	for {
		req := doctorRequest(dep)
		enf, err := client.Decide(ctx, req)
		if err == nil {
			return req.ID, enf
		}
		select {
		case <-ctx.Done():
			t.Fatalf("decide through %s: %v", tenant, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// waitConverged polls until every slice's node reports one state digest.
// Blocks keep coming (the producer mines empty ones), so the members are
// compared until they agree, not sampled once.
func waitConverged(t *testing.T, ctx context.Context, deps ...*drams.Deployment) {
	t.Helper()
	for {
		var digests []crypto.Digest
		for _, dep := range deps {
			for _, cloud := range sliceClouds {
				if node, err := dep.Node(cloud); err == nil {
					digests = append(digests, node.Chain().StateDigest())
				}
			}
		}
		same := true
		for _, d := range digests[1:] {
			same = same && d == digests[0]
		}
		if same {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("state digests did not converge: %v", digests)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// decideOnEverySlice runs a doctor-read through each edge tenant's PEP on
// its own slice and waits for the infrastructure slice's monitor to match
// the exchange.
func decideOnEverySlice(t *testing.T, ctx context.Context, fleet map[string]*drams.Deployment) {
	t.Helper()
	for _, cloud := range sliceClouds {
		tenant := "tenant-" + cloud[len("cloud-"):]
		reqID, enf := decideThrough(t, ctx, fleet[cloud], tenant)
		if enf.Decision != xacml.Permit || enf.PolicyVersion != "v1" {
			t.Fatalf("%s: decision %v under %q, want Permit under v1", tenant, enf.Decision, enf.PolicyVersion)
		}
		if err := fleet["cloud-1"].WaitForMatched(ctx, reqID); err != nil {
			t.Fatalf("%s: exchange %s did not match on the infrastructure slice: %v", tenant, reqID, err)
		}
	}
}

// waitPolicyVersion polls until the slice's watcher has applied version.
func waitPolicyVersion(t *testing.T, ctx context.Context, dep *drams.Deployment, version string) {
	t.Helper()
	for dep.PolicyStats().Version != version {
		select {
		case <-ctx.Done():
			t.Fatalf("watcher still on %q, want %s", dep.PolicyStats().Version, version)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func assertNoAlerts(t *testing.T, infra *drams.Deployment) {
	t.Helper()
	if alerts := infra.Monitor.Alerts(); len(alerts) != 0 {
		t.Fatalf("honest fleet raised %d alerts, first: %+v", len(alerts), alerts[0])
	}
}

// TestMemberSlicesFormOneFederation: three OpenMember slices on one
// network are the federation one Open would build. Each edge decides
// through its own slice's PEP against the PDP on the infrastructure
// slice, whose monitor matches every exchange; the three chains agree; an
// honest run raises nothing; and a slice refuses a tenant it does not host.
func TestMemberSlicesFormOneFederation(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 42})
	t.Cleanup(func() { net.Close() })
	fleet := make(map[string]*drams.Deployment)
	for _, cloud := range sliceClouds {
		fleet[cloud] = openSlice(t, cloud, net)
	}
	infra := fleet["cloud-1"]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	decideOnEverySlice(t, ctx, fleet)
	if _, err := fleet["cloud-2"].Client("tenant-1"); err == nil {
		t.Fatal("slice cloud-2 handed out a client for tenant-1, hosted on cloud-1")
	}
	if err := fleet["cloud-2"].PublishPolicy(testPolicy("v9")); err == nil {
		t.Fatal("a slice without the PDP accepted PublishPolicy")
	}
	waitPolicyVersion(t, ctx, fleet["cloud-2"], "v1")
	if err := fleet["cloud-2"].CompromisePDP(nil); err == nil {
		t.Fatal("a slice without the PDP accepted CompromisePDP")
	}

	waitConverged(t, ctx, fleet["cloud-1"], fleet["cloud-2"], fleet["cloud-3"])
	assertNoAlerts(t, infra)
}

// TestMemberSlicesMintDistinctRequestIDs: members share the seed, and the
// contract reads two records under one request ID as equivocation, so the
// slices' ID streams must not overlap — nor may the stream of a slice that
// is opened again, as a member restarted from its data dir is.
func TestMemberSlicesMintDistinctRequestIDs(t *testing.T) {
	mintedBy := make(map[string]string)
	for _, cloud := range append(sliceClouds, "cloud-3") {
		net := netsim.New(netsim.Config{Seed: 42})
		t.Cleanup(func() { net.Close() })
		dep := openSlice(t, cloud, net)
		for i := 0; i < 256; i++ {
			id := dep.NewRequestID()
			if other, dup := mintedBy[id]; dup {
				t.Fatalf("request ID %s minted by both %s and %s", id, other, cloud)
			}
			mintedBy[id] = cloud
		}
	}
}

// ownTxHeight returns the height of the highest block on node's best chain
// that carries a transaction signed by from, 0 if none does.
func ownTxHeight(node *blockchain.Node, from string) uint64 {
	for h := node.Chain().Height(); h > 0; h-- {
		b, _ := node.Chain().BlockByHeight(h)
		for _, tx := range b.Txs {
			if tx.From == from {
				return h
			}
		}
	}
	return 0
}

// dropFromOwnTx cuts the closed block log at path below the highest block
// of node's best chain that carries a transaction signed by from: the log
// then stops short of the member's own last transaction, as a crash before
// that block's write leaves it. The log holds exactly the node's best chain,
// and the node reopening it reloads the blocks below the cut.
func dropFromOwnTx(t *testing.T, node *blockchain.Node, path, from string) {
	t.Helper()
	h := ownTxHeight(node, from)
	if h == 0 {
		t.Fatalf("no logged block carries a transaction of %s", from)
	}
	if err := blockchain.TruncateBlockLog(path, h-1); err != nil {
		t.Fatal(err)
	}
}

// TestMemberSliceRestartOverTCP is the daemon's lifecycle in-process: three
// slices, each on its own TCP transport and data dir. One is closed with a
// block log that stops short of its own last transaction, the rest flip
// to a new policy without it, and the reopened slice resumes its persisted
// chain, activates the flip at the height the others did, anchors a fresh
// exchange that matches, and converges with them.
func TestMemberSliceRestartOverTCP(t *testing.T) {
	dir := t.TempDir()
	var addrs []string
	listen := func(addr string) *tcp.Transport {
		tr, err := tcp.New(tcp.Config{ListenAddr: addr, Peers: addrs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	deps := make(map[string]*drams.Deployment)
	var tr3 *tcp.Transport
	for _, cloud := range sliceClouds {
		tr3 = listen("127.0.0.1:0")
		addrs = append(addrs, tr3.Advertise())
		deps[cloud] = openSlice(t, cloud, tr3, drams.WithDataDir(dir))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	infra := deps["cloud-1"]

	decideOnEverySlice(t, ctx, deps)
	// cloud-3 persists the block that carries its side of its exchange
	// once it imports it; only then is there a block to drop.
	node3, err := deps["cloud-3"].Node("cloud-3")
	if err != nil {
		t.Fatal(err)
	}
	for ownTxHeight(node3, "li@tenant-3") == 0 {
		select {
		case <-ctx.Done():
			t.Fatal("cloud-3 never imported the block carrying its own transaction")
		case <-time.After(10 * time.Millisecond):
		}
	}

	deps["cloud-3"].Close()
	tr3.Close()
	dropFromOwnTx(t, node3, filepath.Join(dir, "chain-cloud-3.wal"), "li@tenant-3")
	admin, err := deps["cloud-2"].Admin("tenant-2")
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v2"), drams.UpdateOptions{ActivateDelta: 3}); err != nil {
		t.Fatalf("push v2 from the edge slice: %v", err)
	}
	flip := deps["cloud-2"].PolicyStats()

	addrs = addrs[:2]
	reopened := openSlice(t, "cloud-3", listen(tr3.Advertise()), drams.WithDataDir(dir))
	node, err := reopened.Node("cloud-3")
	if err != nil {
		t.Fatal(err)
	}
	if node.Stats().BlocksReloaded == 0 {
		t.Fatal("reopened slice began from a fresh genesis")
	}
	if infraNode, err := infra.Node("cloud-1"); err == nil {
		t.Logf("reopened at height %d, %d blocks behind the fleet", node.Chain().Height(),
			infraNode.Chain().Height()-node.Chain().Height())
	}
	for cloud, dep := range map[string]*drams.Deployment{"cloud-1": infra, "cloud-3": reopened} {
		waitPolicyVersion(t, ctx, dep, "v2")
		if got := dep.PolicyStats().Height; got != flip.Height {
			t.Fatalf("%s activated v2 at height %d, cloud-2 at %d", cloud, got, flip.Height)
		}
	}
	reqID, enf := decideThrough(t, ctx, reopened, "tenant-3")
	if enf.Decision != xacml.Deny || enf.PolicyVersion != "v2" {
		t.Fatalf("reopened slice decided %v under %q, want Deny under v2", enf.Decision, enf.PolicyVersion)
	}
	if err := infra.WaitForMatched(ctx, reqID); err != nil {
		t.Fatalf("the reopened slice's first exchange %s did not match: %v", reqID, err)
	}
	waitConverged(t, ctx, infra, deps["cloud-2"], reopened)
	assertNoAlerts(t, infra)
}

// TestLaggingMemberPushesPolicy: every member shares the PAP identity, and a
// member whose node was cut off before it imported the first publish pushes
// a policy update. Nothing about the first publish can collide with it, so
// the update confirms once the partition heals, and every member activates
// it at one height.
func TestLaggingMemberPushesPolicy(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 42})
	t.Cleanup(func() { net.Close() })
	net.Partition([]string{"node@cloud-2"})
	fleet := make(map[string]*drams.Deployment)
	for _, cloud := range sliceClouds {
		fleet[cloud] = openSlice(t, cloud, net)
	}
	lagging, err := fleet["cloud-2"].Node("cloud-2")
	if err != nil {
		t.Fatal(err)
	}
	if h := lagging.Chain().Height(); h != 0 {
		t.Fatalf("partitioned node imported up to height %d", h)
	}
	admin, err := fleet["cloud-2"].Admin("tenant-2")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pushed := make(chan error, 1)
	go func() {
		pushed <- admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v2"), drams.UpdateOptions{ActivateDelta: 3})
	}()
	for lagging.Mempool().Len() == 0 {
		select {
		case err := <-pushed:
			t.Fatalf("push v2 returned before it was pooled: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	net.Heal()
	if err := <-pushed; err != nil {
		t.Fatalf("push v2 from the lagging member: %v", err)
	}
	flip := fleet["cloud-2"].PolicyStats()
	for _, cloud := range []string{"cloud-1", "cloud-3"} {
		waitPolicyVersion(t, ctx, fleet[cloud], "v2")
		if got := fleet[cloud].PolicyStats().Height; got != flip.Height {
			t.Fatalf("%s activated v2 at height %d, cloud-2 at %d", cloud, got, flip.Height)
		}
	}
	assertNoAlerts(t, fleet["cloud-1"])
}

// TestMemberSlicesExposeOpenSeries: the series a federation exposes do not
// depend on how it is cut into processes — one Open and the union of its
// three OpenMember slices serve the same names and labels.
func TestMemberSlicesExposeOpenSeries(t *testing.T) {
	series := func(deps ...*drams.Deployment) map[string]bool {
		out := make(map[string]bool)
		for _, dep := range deps {
			for _, s := range dep.Gatherer().Gather() {
				if strings.HasPrefix(s.Name, "drams_") {
					out[s.Name] = true
				}
			}
		}
		return out
	}
	whole, err := drams.Open(testPolicy("v1"),
		drams.WithTopology(federation.SimpleTopology("faas", 3)),
		drams.WithSeed(42), drams.WithDifficulty(6))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(whole.Close)
	net := netsim.New(netsim.Config{Seed: 42})
	t.Cleanup(func() { net.Close() })
	var slices []*drams.Deployment
	for _, cloud := range sliceClouds {
		slices = append(slices, openSlice(t, cloud, net))
	}
	want, got := series(whole), series(slices...)
	for name := range want {
		if !got[name] {
			t.Errorf("series %s served by Open, by no slice", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("series %s served by a slice, not by Open", name)
		}
	}
	if len(want) == 0 {
		t.Fatal("Open exposed no drams_* series")
	}
}

// TestMemberSliceMonitorTimesEdgeExchanges: the infrastructure slice's
// monitor times the exchanges an edge slice drives from the records'
// own timestamps, though no client in its process submitted them: an
// alert lands in the detection-latency histogram, a match leaves a
// monitor.match span, and neither leaves an exchange open.
func TestMemberSliceMonitorTimesEdgeExchanges(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 42})
	t.Cleanup(func() { net.Close() })
	fleet := make(map[string]*drams.Deployment)
	for _, cloud := range sliceClouds {
		fleet[cloud] = openSlice(t, cloud, net)
	}
	infra, edge := fleet["cloud-1"], fleet["cloud-2"]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	honest, _ := decideThrough(t, ctx, edge, "tenant-2")
	if err := infra.WaitForMatched(ctx, honest); err != nil {
		t.Fatal(err)
	}
	if err := edge.TamperPEP("tenant-2", &drams.Tamper{
		Enforce: func(xacml.Decision) xacml.Decision { return xacml.Deny },
	}); err != nil {
		t.Fatal(err)
	}
	tampered, _ := decideThrough(t, ctx, edge, "tenant-2")
	if _, err := infra.WaitForAlert(ctx, tampered, core.AlertEnforcementMismatch); err != nil {
		t.Fatal(err)
	}

	st := infra.Monitor.Stats()
	if st.DetectionLatencyMs.Count < 1 {
		t.Fatalf("detection latency has %d samples, want the tampered exchange's", st.DetectionLatencyMs.Count)
	}
	if st.Tracked != 0 {
		t.Fatalf("%d exchanges still open after both settled", st.Tracked)
	}
	spans := infra.Trace(honest)
	for _, s := range spans {
		if s.Stage == trace.StageMonitorMatch {
			return
		}
	}
	t.Fatalf("infrastructure trace of %s holds no %s span: %v", honest, trace.StageMonitorMatch, spans)
}
