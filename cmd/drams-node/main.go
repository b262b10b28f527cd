// drams-node runs one process of a DRAMS federation over the TCP transport:
// a drams.OpenMember of one tenant's cloud, the same assembly an in-process
// drams.Open runs for every cloud. -listen and -tenant are required. Each
// process hosts the chain node, Logging Interface and probing agent of one
// tenant; the infrastructure tenant's process also hosts the PDP, publishes
// the policy on-chain, and runs the monitor and analyser. Edge tenant
// processes host a PEP and (with -requests) drive end-to-end access
// decisions against the remote PDP. A 3-process loopback federation:
//
//	drams-node -listen 127.0.0.1:19701 -tenant infrastructure \
//	    -federation tenant-1,tenant-2
//	drams-node -listen 127.0.0.1:19702 -join 127.0.0.1:19701,127.0.0.1:19703 \
//	    -tenant tenant-1 -federation tenant-1,tenant-2 -requests 4
//	drams-node -listen 127.0.0.1:19703 -join 127.0.0.1:19701,127.0.0.1:19702 \
//	    -tenant tenant-2 -federation tenant-1,tenant-2 -requests 4
//
// Every process derives the same identities, shared key and contract
// configuration from -seed, so their chains validate each other's
// transactions. See docs/DEPLOY.md for the full walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, mounted on the -metrics-addr mux
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"drams"
	"drams/internal/attack"
	"drams/internal/blockchain"
	"drams/internal/core"
	"drams/internal/federation"
	"drams/internal/pap"
	"drams/internal/transport/tcp"
	"drams/internal/xacml"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drams-node:", err)
		os.Exit(1)
	}
}

func run() error {
	difficulty := flag.Int("difficulty", 10, "PoW difficulty in leading zero bits, fixed at genesis (consensus-critical; must match across processes)")
	listen := flag.String("listen", "", "host:port to listen on (required)")
	advertise := flag.String("advertise", "", "address peers dial to reach this process (required when -listen binds a wildcard host)")
	join := flag.String("join", "", "comma-separated peer addresses to connect to")
	tenant := flag.String("tenant", "", "tenant this process hosts ('infrastructure' hosts the PDP and mines)")
	fedList := flag.String("federation", "tenant-1,tenant-2", "comma-separated edge tenant names of the whole federation")
	seed := flag.Uint64("seed", 7, "federation seed (identities and shared key derive from it; must match across processes)")
	requests := flag.Int("requests", 0, "access decisions to drive through this tenant's PEP")
	requestEvery := flag.Duration("request-every", 0, "keep driving one access decision at this interval until shutdown")
	mine := flag.Bool("mine", false, "mine on this node even if it is not the infrastructure process")
	byzantine := flag.String("byzantine", "", "adversarial mode for this member's chain node: 'withhold' mines normally but suppresses all outbound block/tx gossip (attack drills)")
	byzantineAfter := flag.Duration("byzantine-after", 0, "delay before the -byzantine behaviour engages")
	emptyBlock := flag.Duration("empty-block", 50*time.Millisecond, "empty-block cadence")
	timeoutBlocks := flag.Uint64("timeout-blocks", 64, "log-match M3 window in blocks (consensus-critical; must match across processes)")
	runFor := flag.Duration("run-for", 0, "exit cleanly after this duration (0 = until signalled)")
	dataDir := flag.String("data-dir", "", "directory for the chain's block log; a restarted process re-validates and resumes its persisted chain instead of starting from genesis")
	policyFile := flag.String("policy-file", "", "policy-set JSON to publish on-chain as a PAP update (any member may push)")
	policyAtHeight := flag.Uint64("policy-at-height", 0, "wait for this local chain height before pushing -policy-file (0 = push immediately)")
	policyDelta := flag.Uint64("policy-delta", 5, "activation delay of the -policy-file update, in blocks after submission")
	printPolicy := flag.String("print-policy", "", "print a built-in policy set as JSON and exit: standard:<version> or restricted:<version>")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz (and /debug/pprof/) on this host:port (empty disables)")
	catchupDelay := flag.Duration("catchup-delay", 0, "hold the initial chain catch-up for this long after startup (keeps /readyz at 503 long enough for black-box readiness checks)")
	flag.Parse()

	if *printPolicy != "" {
		return runPrintPolicy(*printPolicy)
	}
	if *listen == "" || *tenant == "" {
		return errors.New("usage: drams-node -listen host:port -tenant name [flags], or drams-node -print-policy name:version")
	}
	return runDaemon(daemonConfig{
		listen:         *listen,
		advertise:      *advertise,
		join:           splitList(*join),
		tenant:         *tenant,
		edges:          splitList(*fedList),
		seed:           *seed,
		difficulty:     uint8(*difficulty),
		requests:       *requests,
		requestEvery:   *requestEvery,
		mine:           *mine,
		byzantine:      *byzantine,
		byzantineAfter: *byzantineAfter,
		emptyBlock:     *emptyBlock,
		timeoutBlocks:  *timeoutBlocks,
		runFor:         *runFor,
		dataDir:        *dataDir,
		policyFile:     *policyFile,
		policyAtHeight: *policyAtHeight,
		policyDelta:    *policyDelta,
		metricsAddr:    *metricsAddr,
		catchupDelay:   *catchupDelay,
	})
}

// runPrintPolicy emits a built-in policy set as JSON (the smoke test uses
// it to produce the v2 update file without hand-written JSON).
func runPrintPolicy(spec string) error {
	name, version, ok := strings.Cut(spec, ":")
	if !ok || version == "" {
		return fmt.Errorf("-print-policy wants name:version, got %q", spec)
	}
	var ps *xacml.PolicySet
	switch name {
	case "standard":
		ps = xacml.StandardPolicy(version)
	case "restricted":
		ps = xacml.RestrictedPolicy(version)
	default:
		return fmt.Errorf("-print-policy knows standard|restricted, got %q", name)
	}
	_, err := os.Stdout.Write(append(ps.Encode(), '\n'))
	return err
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

const infraTenant = "infrastructure"

type daemonConfig struct {
	listen       string
	advertise    string
	join         []string
	tenant       string
	edges        []string
	seed         uint64
	difficulty   uint8
	requests     int
	requestEvery time.Duration
	mine         bool
	emptyBlock   time.Duration
	runFor       time.Duration
	dataDir      string

	// Adversarial drill: after byzantineAfter, this member's chain node
	// starts misbehaving per the byzantine mode ("withhold" suppresses
	// all outbound gossip). The rest of the federation must flag the
	// victim's half-anchored exchanges via M3.
	byzantine      string
	byzantineAfter time.Duration

	// Policy administration: push policyFile as an on-chain PAP update
	// once the local chain reaches policyAtHeight, activating policyDelta
	// blocks after submission.
	policyFile     string
	policyAtHeight uint64
	policyDelta    uint64

	// Consensus-critical knobs shared by every process (see
	// drams.ChainParams).
	timeoutBlocks uint64

	// metricsAddr, when set, serves the operations surface — /metrics
	// (Prometheus text exposition), /healthz, /readyz and /debug/pprof/ —
	// on that address. Readiness gates on chain catch-up and policy
	// watcher freshness, so an orchestrator holds traffic from a
	// rejoining process until it has resynced.
	metricsAddr string

	// catchupDelay holds the initial catch-up sync after startup, keeping
	// a non-producing process not-ready for at least that long (black-box
	// readiness checks need an observable 503 window).
	catchupDelay time.Duration
}

// opsHandler is what the -metrics-addr listener serves. The listener is up
// before the member is assembled (a long block log replay must not hide
// /healthz), so until the member's handler is swapped in it answers
// /healthz itself and 503 to everything else — /readyz included. The swap
// happens after the daemon has added its own gate to the member's, so the
// real /readyz is unreachable before its last gate exists.
type opsHandler struct{ member atomic.Pointer[http.Handler] }

func (o *opsHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := o.member.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" {
		_, _ = w.Write([]byte("ok\n"))
		return
	}
	http.Error(w, "components still starting", http.StatusServiceUnavailable)
}

// memberTopology is the federation as the daemons see it: every tenant on a
// cloud of its own name, so each process hosts one cloud and chain node
// addresses are node@<tenant>.
func memberTopology(tenants []string) *federation.Topology {
	topo := &federation.Topology{Name: "federation"}
	for _, t := range tenants {
		topo.Clouds = append(topo.Clouds, federation.Cloud{Name: t, Section: t})
		topo.Tenants = append(topo.Tenants, federation.Tenant{Name: t, Cloud: t, Infrastructure: t == infraTenant})
	}
	return topo
}

func runDaemon(cfg daemonConfig) error {
	logf := func(format string, args ...any) {
		fmt.Printf("[%s] %s\n", cfg.tenant, fmt.Sprintf(format, args...))
	}
	tenants := append(append([]string{}, cfg.edges...), infraTenant)
	if !slices.Contains(tenants, cfg.tenant) {
		return fmt.Errorf("tenant %q is not in the federation %v", cfg.tenant, tenants)
	}
	switch cfg.byzantine {
	case "", "withhold", "mute-logs":
	default:
		return fmt.Errorf("unknown -byzantine mode %q (known: withhold, mute-logs)", cfg.byzantine)
	}

	ops := new(opsHandler)
	if cfg.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", ops)
		// pprof shares the ops port: net/http/pprof registers on the
		// default mux, which we mount under its canonical prefix.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		go func() {
			logf("metrics listening on http://%s/metrics (health on /healthz, /readyz)", cfg.metricsAddr)
			if err := http.ListenAndServe(cfg.metricsAddr, mux); err != nil {
				logf("metrics server: %v", err)
			}
		}()
	}

	// The process's wire: a TCP transport on loopback or a real interface.
	tr, err := tcp.New(tcp.Config{ListenAddr: cfg.listen, AdvertiseAddr: cfg.advertise, Peers: cfg.join})
	if err != nil {
		return err
	}
	defer tr.Close()
	logf("listening on %s, peers %v", tr.Advertise(), cfg.join)

	// One member of the federation every process describes with the same
	// flags: identities, shared key and chain parameters derive from the
	// seed and the whole tenant list, so the members' chains validate each
	// other. A restart with the same -data-dir resumes its persisted chain.
	isInfra := cfg.tenant == infraTenant
	opts := []drams.Option{
		drams.WithTopology(memberTopology(tenants)),
		drams.WithTransport(tr),
		drams.WithSeed(cfg.seed),
		drams.WithDifficulty(cfg.difficulty),
		drams.WithTimeoutBlocks(cfg.timeoutBlocks),
		drams.WithEmptyBlockInterval(cfg.emptyBlock),
		drams.WithDataDir(cfg.dataDir), // "" keeps the chain in memory
	}
	if cfg.mine {
		opts = append(opts, drams.WithMineAll())
	}
	var initial *xacml.PolicySet
	if isInfra {
		// Edges never see the policy itself, only its decisions.
		initial = xacml.StandardPolicy("v1")
	}
	dep, err := drams.OpenMember(initial, cfg.tenant, opts...)
	if err != nil {
		return err
	}
	defer dep.Close()
	node, err := dep.Node(cfg.tenant)
	if err != nil {
		return err
	}
	admin, err := dep.Admin(cfg.tenant)
	if err != nil {
		return err
	}
	boot := node.Stats()
	restored := uint64(boot.BlocksReloaded) // one block per height
	if cfg.dataDir != "" {
		logf("restored chain height=%d (%d blocks reloaded, %d dropped from damaged tail)",
			restored, restored, boot.ReloadDropped)
	}

	var seen atomic.Value // version of the last activation the handler logged
	dep.OnPolicyEvent(func(ev drams.PolicyEvent) {
		switch ev.Kind {
		case pap.EventActivated:
			seen.Store(ev.Version)
			logf("policy %s activated at height %d digest %s", ev.Version, ev.Height, ev.Digest.Short())
		case pap.EventRejected:
			logf("policy %s REJECTED: %s", ev.Version, ev.Err)
		}
	})
	// What the watcher applied while the member was opening (a restored
	// chain's active version, the initial anchor) fired before the handler
	// existed: report where that left the member, in the same format, unless
	// the handler has logged that activation since.
	if st := dep.PolicyStats(); st.Version != "" && seen.Load() != st.Version {
		digest, _ := admin.PolicyDigest(st.Version)
		logf("policy %s activated at height %d digest %s", st.Version, st.Height, digest.Short())
		if isInfra && st.Height > restored {
			logf("policy %s anchored on-chain and loaded", st.Version)
		}
	}
	// Print every security alert from one subscription: Replay brings those
	// in the monitor's window, which holds what it saw while the member was
	// opening, and the stream is drained before the daemon exits. The
	// buffer holds that replay. A restarted member's monitor follows from
	// the restored head: alerts from before the restart stay in the chain's
	// alerted/ rows and are not printed again.
	if alerts, stopAlerts, err := dep.Alerts(context.Background(), drams.AlertFilter{Replay: true, Buffer: 1024}); err == nil {
		printed := make(chan struct{})
		go func() {
			defer close(printed)
			for a := range alerts {
				logf("ALERT type=%s req=%s tenant=%s", a.Type, a.ReqID, a.Tenant)
			}
		}()
		defer func() { stopAlerts(); <-printed }()
	}

	stopCh := make(chan os.Signal, 2)
	signal.Notify(stopCh, os.Interrupt, syscall.SIGTERM)
	deadline := make(<-chan time.Time)
	if cfg.runFor > 0 {
		deadline = time.After(cfg.runFor)
	}
	done := make(chan struct{})
	defer close(done)

	if cfg.byzantine != "" {
		go func() {
			select {
			case <-done:
				return
			case <-time.After(cfg.byzantineAfter):
			}
			switch cfg.byzantine {
			case "withhold":
				attack.Byzantine(node).WithholdGossip()
				logf("BYZANTINE mode=withhold engaged: outbound block/tx gossip suppressed")
			case "mute-logs":
				dep.Agents[cfg.tenant].Mute(core.KindPEPResponse)
				logf("BYZANTINE mode=mute-logs engaged: pep.response records suppressed")
			}
		}()
	}

	// Actively pull the chain suffix this process is missing (restart from
	// -data-dir, late join) over batched bc.getrange calls instead of
	// waiting for the next gossiped block to trigger orphan resolution.
	// Non-producing processes report not-ready until that first sync
	// round completes, so a restarted member is drained while it rejoins.
	synced := make(chan struct{})
	if !(isInfra || cfg.mine) {
		dep.Health().AddReady("sync", func() error {
			select {
			case <-synced:
				return nil
			default:
				return fmt.Errorf("initial chain catch-up in progress (height %d)", node.Chain().Height())
			}
		})
	}
	member := dep.MetricsHandler()
	ops.member.Store(&member)
	var nodePeers []string
	for _, t := range tenants {
		nodePeers = append(nodePeers, "node@"+t)
	}
	go catchUp(node, nodePeers, cfg.catchupDelay, logf, done, synced)

	// Any member can administer policies: push the -policy-file update
	// once the local chain reaches the trigger height.
	if cfg.policyFile != "" {
		go pushPolicyFile(node, admin, cfg, logf, done)
	}

	// Edge processes drive end-to-end decisions once the PDP is reachable
	// (fire-and-forget: the daemon keeps serving until signalled/-run-for).
	if !isInfra && (cfg.requests > 0 || cfg.requestEvery > 0) {
		client, err := dep.Client(cfg.tenant)
		if err != nil {
			return err
		}
		go driveRequests(client, cfg, logf, done)
	}

	status := time.NewTicker(500 * time.Millisecond)
	defer status.Stop()
	for {
		select {
		case <-stopCh:
			logf("signalled, shutting down at height %d", node.Chain().Height())
			return nil
		case <-deadline:
			logf("run-for elapsed, final height %d digest %s",
				node.Chain().Height(), node.Chain().StateDigest().Short())
			return nil
		case <-status.C:
			// Operators and smoke_federation.sh compare digests across
			// processes by height: read again if the head moved between
			// the two reads.
			height, digest := node.Chain().Height(), node.Chain().StateDigest()
			for h := node.Chain().Height(); h != height; h = node.Chain().Height() {
				height, digest = h, node.Chain().StateDigest()
			}
			st := node.Stats()
			logf("status height=%d digest=%s mined=%d accepted=%d",
				height, digest.Short(), st.BlocksMined, st.BlocksAccepted)
		}
	}
}

// catchUp syncs the node with the first reachable chain peer, retrying
// while peer processes are still dialing. One log line reports the batched
// range-sync economics: blocks fetched vs transport Calls spent. The
// counters are the node's lifetime totals, not a delta — a gossiped block
// can trigger the same batched pull through orphan resolution before (or
// while) this goroutine runs, and that work is part of the rejoin too.
func catchUp(node *blockchain.Node, peers []string, delay time.Duration, logf func(string, ...any), done <-chan struct{}, synced chan<- struct{}) {
	defer close(synced)
	if delay > 0 {
		select {
		case <-done:
			return
		case <-time.After(delay):
		}
	}
	for attempt := 0; attempt < 240; attempt++ {
		for _, p := range peers {
			if p == node.Name() {
				continue
			}
			if err := node.SyncFrom(p); err == nil {
				st := node.Stats()
				logf("caught up to height %d from %s: %d blocks in %d sync calls",
					node.Chain().Height(), p, st.SyncBlocks, st.SyncCalls)
				return
			}
		}
		select {
		case <-done:
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
	logf("catch-up: no chain peer reachable; relying on gossip")
}

// pushPolicyFile publishes the -policy-file update once the local chain
// reaches the trigger height and waits for the local flip.
func pushPolicyFile(node *blockchain.Node, admin *drams.Admin, cfg daemonConfig,
	logf func(string, ...any), done <-chan struct{}) {
	raw, err := os.ReadFile(cfg.policyFile)
	if err != nil {
		logf("policy push FAILED: %v", err)
		return
	}
	ps, err := xacml.DecodePolicySet(raw)
	if err != nil {
		logf("policy push FAILED: %s does not parse: %v", cfg.policyFile, err)
		return
	}
	for node.Chain().Height() < cfg.policyAtHeight {
		select {
		case <-done:
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := admin.UpdatePolicy(ctx, ps, drams.UpdateOptions{ActivateDelta: cfg.policyDelta}); err != nil {
		logf("policy push FAILED: %v", err)
		return
	}
	logf("policy %s pushed", ps.Version)
}

// driveRequests issues access decisions through the tenant's PEP, retrying
// until the remote PDP is reachable and the policy is active. With
// -request-every it keeps going until shutdown, logging each decision with
// the policy version it was made under — the observable trace of a
// fleet-wide policy flip.
func driveRequests(client *drams.Client, cfg daemonConfig, logf func(string, ...any), done <-chan struct{}) {
	roles := []string{"doctor", "nurse", "intern"}
	decideOnce := func(i int, retries int) bool {
		role := roles[i%len(roles)]
		req := client.NewRequest().
			Add(xacml.CatSubject, "role", xacml.String(role)).
			Add(xacml.CatAction, "op", xacml.String("read")).
			Add(xacml.CatResource, "type", xacml.String("record"))
		for attempt := 0; ; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			enf, err := client.Decide(ctx, req)
			cancel()
			if err == nil {
				logf("decision req=%s role=%s decision=%v policy=%s",
					req.ID, role, enf.Decision, enf.PolicyVersion)
				return true
			}
			if attempt >= retries {
				logf("decision req=%s FAILED: %v", req.ID, err)
				return false
			}
			select {
			case <-done:
				return false
			case <-time.After(500 * time.Millisecond):
			}
		}
	}
	for i := 0; i < cfg.requests; i++ {
		decideOnce(i, 60)
	}
	if cfg.requests > 0 {
		logf("drove %d decisions", cfg.requests)
	}
	if cfg.requestEvery <= 0 {
		return
	}
	// Continuous mode: always the doctor-read probe (index 0), so the
	// decision stream flips visibly when a policy update lands.
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		case <-time.After(cfg.requestEvery):
		}
		decideOnce(0, 20)
	}
}
