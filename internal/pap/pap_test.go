package pap

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/netsim"
	"drams/internal/xacml"
)

// papFleet is a miniature federation: n chain nodes over netsim, each with
// a PDP and a Watcher, plus an Admin bound to one member.
type papFleet struct {
	nodes    []*blockchain.Node
	pdps     []*xacml.PDP
	watchers []*Watcher
	admin    *Admin
	events   *eventLog
}

type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *eventLog) byKind(k EventKind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, ev := range l.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

func newFleet(t *testing.T, n int) *papFleet {
	t.Helper()
	pap := crypto.NewIdentityFromSeed("pap", crypto.DeriveKey("pap-test", "id"))
	registry := contract.NewRegistry()
	registry.MustRegister(&core.PolicyContract{PAP: pap.Name()})
	chainCfg := blockchain.Config{
		Difficulty: 6,
		Identities: []crypto.PublicIdentity{pap.Public()},
		Registry:   registry,
	}
	net := netsim.New(netsim.Config{BaseLatency: time.Millisecond, Seed: 5})
	f := &papFleet{events: &eventLog{}}
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("node-%d", i)
	}
	for i := 0; i < n; i++ {
		node, err := blockchain.NewNode(blockchain.NodeConfig{
			Name:               peers[i],
			Chain:              chainCfg,
			Network:            net,
			Peers:              peers,
			Mine:               i == 0,
			EmptyBlockInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, node)
		pdp := xacml.NewPDP(nil)
		f.pdps = append(f.pdps, pdp)
		w, err := NewWatcher(WatcherConfig{Node: node, PDP: pdp, OnEvent: f.events.add})
		if err != nil {
			t.Fatal(err)
		}
		f.watchers = append(f.watchers, w)
	}
	t.Cleanup(func() {
		for _, w := range f.watchers {
			w.Stop()
		}
		for _, nd := range f.nodes {
			nd.Stop()
		}
		net.Close()
	})
	for _, nd := range f.nodes {
		nd.Start()
	}
	for _, w := range f.watchers {
		w.Start()
	}
	f.admin = NewAdmin(f.nodes[0], pap)
	return f
}

func papCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func (f *papFleet) waitAll(t *testing.T, version string) {
	t.Helper()
	ctx := papCtx(t)
	for i, w := range f.watchers {
		if err := w.WaitForVersion(ctx, version); err != nil {
			t.Fatalf("watcher %d: %v", i, err)
		}
	}
}

func doctorRead(id string) *xacml.Request {
	return xacml.NewRequest(id).
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatAction, "op", xacml.String("read"))
}

// TestFleetActivatesAtSameHeight publishes updates from one member and
// demands every member flip — to the same version, at the same chain
// height, with the PDP answering under the new policy afterwards.
func TestFleetActivatesAtSameHeight(t *testing.T) {
	f := newFleet(t, 3)
	ctx := papCtx(t)

	prop, err := f.admin.UpdatePolicy(ctx, xacml.StandardPolicy("v1"), UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f.waitAll(t, "v1")
	for i, pdp := range f.pdps {
		res, err := pdp.Evaluate(doctorRead(fmt.Sprintf("r1-%d", i)))
		if err != nil {
			t.Fatalf("pdp %d: %v", i, err)
		}
		if res.Decision != xacml.Permit || res.PolicyVersion != "v1" {
			t.Fatalf("pdp %d under v1: %v/%s", i, res.Decision, res.PolicyVersion)
		}
	}

	// Second update with a real activation delay.
	prop, err = f.admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v2"), UpdateOptions{ActivateDelta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if prop.Digest != xacml.RestrictedPolicy("v2").Digest() {
		t.Fatalf("proposal digest = %s", prop.Digest.Short())
	}
	f.waitAll(t, "v2")

	// Same activation height on every member.
	var height uint64
	for i, w := range f.watchers {
		st := w.Stats()
		if st.Version != "v2" {
			t.Fatalf("watcher %d version = %q", i, st.Version)
		}
		if i == 0 {
			height = st.Height
		} else if st.Height != height {
			t.Fatalf("watcher %d activated at %d, watcher 0 at %d", i, st.Height, height)
		}
	}
	if height < prop.ActivateHeight {
		t.Fatalf("activated at %d before the gate %d", height, prop.ActivateHeight)
	}

	// Decisions flip everywhere.
	for i, pdp := range f.pdps {
		res, err := pdp.Evaluate(doctorRead(fmt.Sprintf("r2-%d", i)))
		if err != nil {
			t.Fatalf("pdp %d: %v", i, err)
		}
		if res.Decision != xacml.Deny || res.PolicyVersion != "v2" {
			t.Fatalf("pdp %d under v2: %v/%s", i, res.Decision, res.PolicyVersion)
		}
	}

	// On-chain history agrees.
	if hist := f.admin.History(); len(hist) != 2 || hist[0].Version != "v1" || hist[1].Version != "v2" {
		t.Fatalf("history = %+v", hist)
	}
}

// TestRollbackReactivatesOldVersion flips v1→v2→v1 and checks decisions
// and history follow.
func TestRollbackReactivatesOldVersion(t *testing.T) {
	f := newFleet(t, 2)
	ctx := papCtx(t)

	if _, err := f.admin.UpdatePolicy(ctx, xacml.StandardPolicy("v1"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	f.waitAll(t, "v1")
	if _, err := f.admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v2"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	f.waitAll(t, "v2")

	prop, err := f.admin.Rollback(ctx, "v1", UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prop.Version != "v1" {
		t.Fatalf("rollback proposal = %+v", prop)
	}
	f.waitAll(t, "v1")
	for i, pdp := range f.pdps {
		res, err := pdp.Evaluate(doctorRead(fmt.Sprintf("rb-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision != xacml.Permit || res.PolicyVersion != "v1" {
			t.Fatalf("pdp %d after rollback: %v/%s", i, res.Decision, res.PolicyVersion)
		}
	}
	if hist := f.admin.History(); len(hist) != 3 || hist[2].Version != "v1" {
		t.Fatalf("history = %+v", hist)
	}
	if _, err := f.admin.Rollback(ctx, "v9", UpdateOptions{}); err == nil {
		t.Fatal("rollback to unknown version accepted")
	}
}

// TestConflictSurfacesAsError re-anchors an existing version with different
// content: the Admin reports ErrPolicyConflict, the fleet keeps the
// original digest, and watchers surface the equivocation as a rejection.
func TestConflictSurfacesAsError(t *testing.T) {
	f := newFleet(t, 2)
	ctx := papCtx(t)

	if _, err := f.admin.UpdatePolicy(ctx, xacml.StandardPolicy("v1"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	f.waitAll(t, "v1")

	divergent := xacml.RestrictedPolicy("v1")
	if _, err := f.admin.UpdatePolicy(ctx, divergent, UpdateOptions{}); !errors.Is(err, ErrPolicyConflict) {
		t.Fatalf("conflict err = %v", err)
	}
	if d, _ := f.admin.PolicyDigest("v1"); d != xacml.StandardPolicy("v1").Digest() {
		t.Fatal("conflict replaced the anchored digest")
	}
	waitCond(t, 10*time.Second, func() bool {
		return len(f.events.byKind(EventRejected)) >= 1
	}, "watchers never surfaced the conflict")

	// Idempotent retry of the original content is fine.
	if _, err := f.admin.UpdatePolicy(ctx, xacml.StandardPolicy("v1"), UpdateOptions{}); err != nil {
		t.Fatalf("idempotent retry: %v", err)
	}
}

// TestLateJoinerSyncsActivePolicy starts a watcher only after activations
// happened: Sync must bring it to the fleet's active version.
func TestLateJoinerSyncsActivePolicy(t *testing.T) {
	f := newFleet(t, 2)
	ctx := papCtx(t)
	if _, err := f.admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v5"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	f.waitAll(t, "v5")

	pdp := xacml.NewPDP(nil)
	late, err := NewWatcher(WatcherConfig{Node: f.nodes[1], PDP: pdp})
	if err != nil {
		t.Fatal(err)
	}
	late.Start()
	defer late.Stop()
	if err := late.WaitForVersion(ctx, "v5"); err != nil {
		t.Fatal(err)
	}
	res, err := pdp.Evaluate(doctorRead("late"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != xacml.Deny || res.PolicyVersion != "v5" {
		t.Fatalf("late joiner: %v/%s", res.Decision, res.PolicyVersion)
	}
}

// A flip is reported — by Version, Stats and WaitForVersion — only once the
// member's listeners have taken it in: the deployment feeds its monitor and
// OnPolicyEvent hook in OnEvent, and whoever acts on the report must find
// the activation already there.
func TestFlipReportedAfterListenersRan(t *testing.T) {
	f := newFleet(t, 1)
	ctx := papCtx(t)
	pdp := xacml.NewPDP(nil)
	inListener, release := make(chan struct{}), make(chan struct{})
	w, err := NewWatcher(WatcherConfig{Node: f.nodes[0], PDP: pdp, OnEvent: func(ev Event) {
		if ev.Kind == EventActivated {
			close(inListener)
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo() // before Stop, which waits for the listener to return
	if _, err := f.admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v9"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	<-inListener
	// The PDP already decides under v9; the flip is not reported yet.
	if res, err := pdp.Evaluate(doctorRead("early")); err != nil || res.PolicyVersion != "v9" {
		t.Fatalf("PDP on %q (%v) while the listener runs, want v9", res.PolicyVersion, err)
	}
	if got := w.Stats().Version; got != "" {
		t.Fatalf("Stats().Version = %q while the listener is still running", got)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := w.WaitForVersion(short, "v9"); err == nil {
		t.Fatal("WaitForVersion returned while the listener was still running")
	}
	letGo()
	if err := w.WaitForVersion(ctx, "v9"); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Version != "v9" || st.Height == 0 || st.Activations != 1 {
		t.Fatalf("stats after the flip = %+v", st)
	}
}

// TestReplayReproducesPolicyState replays the frozen best chain into a
// fresh replica and demands identical contract state and active version —
// the node-restart determinism guarantee.
func TestReplayReproducesPolicyState(t *testing.T) {
	f := newFleet(t, 2)
	ctx := papCtx(t)
	if _, err := f.admin.UpdatePolicy(ctx, xacml.StandardPolicy("v1"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	f.waitAll(t, "v1")
	if _, err := f.admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v2"), UpdateOptions{ActivateDelta: 2}); err != nil {
		t.Fatal(err)
	}
	f.waitAll(t, "v2")
	if _, err := f.admin.Rollback(ctx, "v1", UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	f.waitAll(t, "v1")

	// Freeze the source chain.
	src := f.nodes[0].Chain()
	for _, nd := range f.nodes {
		nd.Stop()
	}

	replica := blockchain.NewChain(src.Config())
	for _, h := range src.BestChainHashes() {
		if h == src.Genesis() {
			continue
		}
		b, ok := src.BlockByHash(h)
		if !ok {
			t.Fatalf("best-chain block %s missing", h.Short())
		}
		if err := replica.AddBlock(b); err != nil {
			t.Fatalf("replay %s: %v", h.Short(), err)
		}
	}
	if replica.StateDigest() != src.StateDigest() {
		t.Fatalf("replayed state digest %s != source %s",
			replica.StateDigest().Short(), src.StateDigest().Short())
	}
	var srcVer, repVer string
	src.ReadState(core.PolicyContractName, func(st contract.StateDB) { srcVer, _, _ = core.ReadActivePolicy(st) })
	replica.ReadState(core.PolicyContractName, func(st contract.StateDB) { repVer, _, _ = core.ReadActivePolicy(st) })
	if srcVer != "v1" || repVer != srcVer {
		t.Fatalf("active versions: source %q, replica %q", srcVer, repVer)
	}
}

func waitCond(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

// TestWatcherFollowsReorgThatDropsActivation: v1 activates at block 1 and
// v2 at block 2, then a longer branch of empty blocks from block 1 becomes
// best. No event says that v2 is no longer active; the watcher reads the
// state of the new head and goes back to v1, so the PDP decides under the
// version the chain holds.
func TestWatcherFollowsReorgThatDropsActivation(t *testing.T) {
	papID := crypto.NewIdentityFromSeed("pap", crypto.DeriveKey("pap-reorg", "id"))
	registry := contract.NewRegistry()
	registry.MustRegister(&core.PolicyContract{PAP: papID.Name()})
	net := netsim.New(netsim.Config{Seed: 9})
	defer net.Close()
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "member", Network: net,
		Chain: blockchain.Config{Difficulty: 6, Identities: []crypto.PublicIdentity{papID.Public()}, Registry: registry},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	node.Start()
	pdp := xacml.NewPDP(nil)
	w, err := NewWatcher(WatcherConfig{Node: node, PDP: pdp})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()

	c := node.Chain()
	update := func(ps *xacml.PolicySet) blockchain.Transaction {
		blob := ps.Encode()
		pu := core.PolicyUpdate{Version: ps.Version, Policy: blob, Digest: crypto.Sum(blob)}
		tx, err := blockchain.NewTransaction(papID, c.Height(), contract.Call{
			Contract: core.PolicyContractName, Method: core.MethodPolicyUpdate, Args: pu.Encode(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	ctx := papCtx(t)
	b1 := mineOn(t, c, c.Genesis(), update(xacml.StandardPolicy("v1")))
	if err := w.WaitForVersion(ctx, "v1"); err != nil {
		t.Fatal(err)
	}
	mineOn(t, c, b1.Hash(), update(xacml.RestrictedPolicy("v2")))
	if err := w.WaitForVersion(ctx, "v2"); err != nil {
		t.Fatal(err)
	}

	fork := mineOn(t, c, b1.Hash())
	mineOn(t, c, fork.Hash())
	var active string
	c.ReadState(core.PolicyContractName, func(st contract.StateDB) { active, _, _ = core.ReadActivePolicy(st) })
	if active != "v1" {
		t.Fatalf("chain active %q after the reorg, want v1", active)
	}
	short, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := w.WaitForVersion(short, active); err != nil {
		t.Fatalf("watcher on %q, chain active %q: %v", w.Stats().Version, active, err)
	}
	res, err := pdp.Evaluate(doctorRead("after-reorg"))
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyVersion != active || res.Decision != xacml.Permit {
		t.Fatalf("PDP decides %v under %q, chain active %q", res.Decision, res.PolicyVersion, active)
	}
	if st := w.Stats(); st.Version != active || st.Height != 1 || st.Activations != 3 {
		t.Fatalf("stats after the reorg = %+v, want v1 at height 1 after 3 activations", st)
	}
}

// A watcher that lags reads only the head: two activations land while its
// listener blocks, and when it looks again it loads and reports the head's
// version, once, and never the one in between.
func TestWatcherLagLoadsOnlyHeadVersion(t *testing.T) {
	f := newFleet(t, 1)
	ctx := papCtx(t)
	pdp := xacml.NewPDP(nil)
	events := &eventLog{}
	inListener, release := make(chan struct{}), make(chan struct{})
	w, err := NewWatcher(WatcherConfig{Node: f.nodes[0], PDP: pdp, OnEvent: func(ev Event) {
		events.add(ev)
		if ev.Kind == EventActivated && ev.Version == "v1" {
			close(inListener)
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo() // before Stop, which waits for the listener to return
	if _, err := f.admin.UpdatePolicy(ctx, xacml.StandardPolicy("v1"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	<-inListener
	if _, err := f.admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v2"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.admin.UpdatePolicy(ctx, xacml.StandardPolicy("v3"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	letGo()
	if err := w.WaitForVersion(ctx, "v3"); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range events.byKind(EventActivated) {
		got = append(got, ev.Version)
	}
	if !slices.Equal(got, []string{"v1", "v3"}) {
		t.Fatalf("activations reported %v, want [v1 v3]", got)
	}
	if st := w.Stats(); st.Version != "v3" || st.Activations != 2 {
		t.Fatalf("stats = %+v, want v3 after 2 activations", st)
	}
	if res, err := pdp.Evaluate(doctorRead("lagged")); err != nil || res.PolicyVersion != "v3" {
		t.Fatalf("PDP on %q (%v), want v3", res.PolicyVersion, err)
	}
}

// mineOn mines txs into a child of parent, timestamped 100 ms per height
// after genesis, and adds it to c.
func mineOn(t *testing.T, c *blockchain.Chain, parent crypto.Digest, txs ...blockchain.Transaction) *blockchain.Block {
	t.Helper()
	pb, ok := c.BlockByHash(parent)
	if !ok {
		t.Fatalf("no parent block %s", parent.Short())
	}
	genesis, _ := c.BlockByHeight(0)
	height := pb.Header.Height + 1
	b := &blockchain.Block{
		Header: blockchain.BlockHeader{
			Height:       height,
			PrevHash:     parent,
			MerkleRoot:   blockchain.ComputeMerkleRoot(txs),
			TimeUnixNano: genesis.Header.TimeUnixNano + int64(height)*int64(100*time.Millisecond),
			Difficulty:   c.Config().Difficulty,
			Miner:        "test",
		},
		Txs: txs,
	}
	if !blockchain.Mine(context.Background(), b, 0) {
		t.Fatal("mining failed")
	}
	if err := c.AddBlock(b); err != nil {
		t.Fatalf("block %d: %v", height, err)
	}
	return b
}

// TestWatcherRecoversAfterNodeRestart is the pap half of the crash/restart
// lifecycle: a member whose node reopens from its data dir — with policy
// flips having happened while it was down — must land on the fleet's
// current active version without any replayed admin action.
func TestWatcherRecoversAfterNodeRestart(t *testing.T) {
	papID := crypto.NewIdentityFromSeed("pap", crypto.DeriveKey("pap-restart", "id"))
	registry := contract.NewRegistry()
	registry.MustRegister(&core.PolicyContract{PAP: papID.Name()})
	chainCfg := blockchain.Config{
		Difficulty: 6,
		Identities: []crypto.PublicIdentity{papID.Public()},
		Registry:   registry,
	}
	net := netsim.New(netsim.Config{BaseLatency: time.Millisecond, Seed: 21})
	defer net.Close()
	peers := []string{"producer", "member"}
	producer, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "producer", Chain: chainCfg, Network: net, Peers: peers,
		Mine: true, EmptyBlockInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Stop()
	producer.Start()

	path := filepath.Join(t.TempDir(), "member.wal")
	member, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "member", Chain: chainCfg, Network: net, Peers: peers, BlockLog: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	member.Start()
	memberPDP := xacml.NewPDP(nil)
	w, err := NewWatcher(WatcherConfig{Node: member, PDP: memberPDP})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()

	ctx := papCtx(t)
	admin := NewAdmin(producer, papID)
	if _, err := admin.UpdatePolicy(ctx, xacml.StandardPolicy("v1"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitForVersion(ctx, "v1"); err != nil {
		t.Fatal(err)
	}

	// Crash the member mid-run.
	crashHeight := member.Chain().Height()
	w.Stop()
	member.Stop()
	net.Unregister("member")

	// The fleet flips to v2 while the member is down.
	if _, err := admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v2"), UpdateOptions{}); err != nil {
		t.Fatal(err)
	}

	// Reopen from the data dir: re-validate, catch up past the crash
	// height over batched sync, and reconcile the policy state.
	restarted, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "member", Chain: chainCfg, Network: net, Peers: peers, BlockLog: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Stop()
	if restarted.Stats().BlocksReloaded == 0 || restarted.Chain().Height() == 0 {
		t.Fatal("restart began from a fresh genesis")
	}
	restarted.Start()
	if err := restarted.SyncFrom("producer"); err != nil {
		t.Fatal(err)
	}
	if restarted.Chain().Height() <= crashHeight {
		t.Fatalf("no catch-up past crash height %d", crashHeight)
	}
	restartedPDP := xacml.NewPDP(nil)
	w2, err := NewWatcher(WatcherConfig{Node: restarted, PDP: restartedPDP})
	if err != nil {
		t.Fatal(err)
	}
	w2.Start()
	defer w2.Stop()
	if err := w2.WaitForVersion(ctx, "v2"); err != nil {
		t.Fatal(err)
	}
	res, err := restartedPDP.Evaluate(doctorRead("after-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != xacml.Deny || res.PolicyVersion != "v2" {
		t.Fatalf("restarted member decides %v under %s, want Deny under v2", res.Decision, res.PolicyVersion)
	}
	waitCond(t, 10*time.Second, func() bool {
		return restarted.Chain().StateDigest() == producer.Chain().StateDigest()
	}, "restarted member converges on the fleet digest")
}
