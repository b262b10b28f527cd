// drams-node runs DRAMS blockchain nodes in two modes.
//
// Cluster-sim mode (default): a local multi-node cluster over netsim that
// verifies replication invariants live — it mines to a target height under
// injected network latency, exercises a partition/heal cycle, and checks
// that every node converges to the same state digest.
//
//	drams-node [-nodes 3] [-difficulty 10] [-height 30] [-latency 2ms]
//
// Daemon mode (-listen): one real federation process over the TCP
// transport. Each process hosts the chain node, Logging Interface and
// probing agent of one tenant; the infrastructure tenant's process also
// hosts the PDP, publishes the policy on-chain, and runs the monitor and
// analyser. Edge tenant processes host a PEP and (with -requests) drive
// end-to-end access decisions against the remote PDP. A 3-process loopback
// federation:
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
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only behind -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"drams"
	"drams/internal/attack"
	"drams/internal/blockchain"
	"drams/internal/clock"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/federation"
	"drams/internal/idgen"
	"drams/internal/logger"
	"drams/internal/metrics"
	"drams/internal/netsim"
	"drams/internal/obs"
	"drams/internal/pap"
	"drams/internal/store"
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
	nodes := flag.Int("nodes", 3, "cluster-sim: cluster size")
	difficulty := flag.Int("difficulty", 10, "PoW difficulty (leading zero bits)")
	height := flag.Uint64("height", 30, "cluster-sim: target chain height")
	latency := flag.Duration("latency", 2*time.Millisecond, "cluster-sim: simulated network latency")

	listen := flag.String("listen", "", "daemon: host:port to listen on (enables daemon mode)")
	advertise := flag.String("advertise", "", "daemon: address peers dial to reach this process (required when -listen binds a wildcard host)")
	join := flag.String("join", "", "daemon: comma-separated peer addresses to connect to")
	tenant := flag.String("tenant", "", "daemon: tenant this process hosts ('infrastructure' hosts the PDP and mines)")
	fedList := flag.String("federation", "tenant-1,tenant-2", "daemon: comma-separated edge tenant names of the whole federation")
	seed := flag.Uint64("seed", 7, "daemon: federation seed (identities and shared key derive from it; must match across processes)")
	requests := flag.Int("requests", 0, "daemon: access decisions to drive through this tenant's PEP")
	requestEvery := flag.Duration("request-every", 0, "daemon: keep driving one access decision at this interval until shutdown")
	mine := flag.Bool("mine", false, "daemon: mine on this node even if it is not the infrastructure process")
	byzantine := flag.String("byzantine", "", "daemon: adversarial mode for this member's chain node: 'withhold' mines normally but suppresses all outbound block/tx gossip (attack drills)")
	byzantineAfter := flag.Duration("byzantine-after", 0, "daemon: delay before the -byzantine behaviour engages")
	emptyBlock := flag.Duration("empty-block", 50*time.Millisecond, "daemon: empty-block cadence")
	timeoutBlocks := flag.Uint64("timeout-blocks", 64, "daemon: log-match M3 window in blocks (consensus-critical; must match across processes)")
	requireVerdict := flag.Bool("require-verdict", true, "daemon: demand an analyser verdict per exchange (consensus-critical; must match across processes)")
	runFor := flag.Duration("run-for", 0, "daemon: exit cleanly after this duration (0 = until signalled)")
	dataDir := flag.String("data-dir", "", "daemon: directory for the durable chain store; a restarted process re-validates and resumes its persisted chain instead of starting from genesis")
	policyFile := flag.String("policy-file", "", "daemon: policy-set JSON to publish on-chain as a PAP update (any member may push)")
	policyAtHeight := flag.Uint64("policy-at-height", 0, "daemon: wait for this local chain height before pushing -policy-file (0 = push immediately)")
	policyDelta := flag.Uint64("policy-delta", 5, "daemon: activation delay of the -policy-file update, in blocks after submission")
	printPolicy := flag.String("print-policy", "", "print a built-in policy set as JSON and exit: standard:<version> or restricted:<version>")
	flushWindow := flag.Int("log-flush-window", 16, "daemon: max probe records per Merkle-anchored LI batch transaction (1 disables batching)")
	pprofAddr := flag.String("pprof-addr", "", "daemon: serve net/http/pprof on this host:port (empty disables)")
	metricsAddr := flag.String("metrics-addr", "", "daemon: serve /metrics, /healthz, /readyz (and /debug/pprof/) on this host:port (empty disables)")
	catchupDelay := flag.Duration("catchup-delay", 0, "daemon: hold the initial chain catch-up for this long after startup (keeps /readyz at 503 long enough for black-box readiness checks)")
	flag.Parse()

	if *printPolicy != "" {
		return runPrintPolicy(*printPolicy)
	}
	if *listen != "" {
		if *tenant == "" {
			return fmt.Errorf("daemon mode needs -tenant")
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
			requireVerdict: *requireVerdict,
			runFor:         *runFor,
			dataDir:        *dataDir,
			policyFile:     *policyFile,
			policyAtHeight: *policyAtHeight,
			policyDelta:    *policyDelta,
			flushWindow:    *flushWindow,
			pprofAddr:      *pprofAddr,
			metricsAddr:    *metricsAddr,
			catchupDelay:   *catchupDelay,
		})
	}
	return runClusterSim(*nodes, *difficulty, *height, *latency)
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

// ---------------------------------------------------------------------------
// Daemon mode: one federation process over TCP.

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
	timeoutBlocks  uint64
	requireVerdict bool

	// flushWindow caps records per Merkle-anchored LI batch transaction
	// (1 disables batching). Local policy, not consensus: honest replicas
	// accept both plain and batched log transactions.
	flushWindow int

	// pprofAddr, when set, serves net/http/pprof on that address.
	pprofAddr string

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

// startupGate registers the "startup" readiness check, failing until the
// returned function is called.
func startupGate(health *obs.Health) (started func()) {
	var up atomic.Bool
	health.AddReady("startup", func() error {
		if up.Load() {
			return nil
		}
		return errors.New("components still starting")
	})
	return func() { up.Store(true) }
}

func runDaemon(cfg daemonConfig) error {
	logf := func(format string, args ...any) {
		fmt.Printf("[%s] %s\n", cfg.tenant, fmt.Sprintf(format, args...))
	}
	// Operations surface: one registry/tracer/health per process; the
	// collectors are registered as each component comes up.
	reg := metrics.NewRegistry()
	gatherer := obs.NewGatherer(reg)
	tracer := obs.NewTracer(reg, obs.DefaultTraceCapacity)
	health := obs.NewHealth()
	// Readiness is the AND of the registered checks, and an empty set is
	// ready: hold /readyz at 503 from before the listener is up until the
	// real gates (chain, policy-watcher, sync) are all in.
	started := startupGate(health)
	if cfg.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(gatherer, health))
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
	if cfg.pprofAddr != "" && cfg.pprofAddr != cfg.metricsAddr {
		go func() {
			logf("pprof listening on http://%s/debug/pprof/", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, nil); err != nil {
				logf("pprof server: %v", err)
			}
		}()
	}
	isInfra := cfg.tenant == infraTenant

	tenants := append([]string{}, cfg.edges...)
	tenants = append(tenants, infraTenant)
	found := false
	for _, t := range tenants {
		if t == cfg.tenant {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("tenant %q is not in the federation %v", cfg.tenant, tenants)
	}

	// Deterministic federation-wide material: component identities, the
	// shared LI key, the contract registry and the chain parameters — the
	// exact derivation drams.New uses, so a drams.Open deployment with the
	// same seed, tenant set and ChainParams can join this federation.
	material := drams.NewChainMaterial(cfg.seed, tenants, drams.ChainParams{
		Difficulty:     cfg.difficulty,
		TimeoutBlocks:  cfg.timeoutBlocks,
		RequireVerdict: cfg.requireVerdict,
	})
	liIDs := material.LIIdentities
	analyserID, papID := material.AnalyserID, material.PAPID
	key := material.Key
	chainCfg := material.Chain

	// The process's wire: a TCP transport on loopback or a real interface.
	tr, err := tcp.New(tcp.Config{ListenAddr: cfg.listen, AdvertiseAddr: cfg.advertise, Peers: cfg.join})
	if err != nil {
		return err
	}
	defer tr.Close()
	logf("listening on %s, peers %v", tr.Advertise(), cfg.join)
	gatherer.Register(drams.TransportCollector(tr))

	var nodePeers []string
	for _, t := range tenants {
		nodePeers = append(nodePeers, "node@"+t)
	}
	// Durable chain store: a process restarted with the same -data-dir
	// re-validates its persisted chain and rejoins instead of starting a
	// fresh genesis.
	var chainStore *store.KV
	if cfg.dataDir != "" {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			return fmt.Errorf("data dir: %w", err)
		}
		chainStore, err = store.Open(filepath.Join(cfg.dataDir, "chain.wal"))
		if err != nil {
			return fmt.Errorf("open chain store: %w", err)
		}
		defer chainStore.Close()
	}
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name:               "node@" + cfg.tenant,
		Chain:              chainCfg,
		Network:            tr,
		Peers:              nodePeers,
		Mine:               isInfra || cfg.mine,
		EmptyBlockInterval: cfg.emptyBlock,
		Store:              chainStore,
	})
	if err != nil {
		return err
	}
	defer node.Stop()
	node.Start()
	gatherer.Register(drams.NodeCollector(node.Name(), node))
	health.AddReady("chain", drams.ChainReady(node))
	muteLogs := false
	switch cfg.byzantine {
	case "":
	case "withhold":
		byz := attack.Byzantine(node)
		go func() {
			if cfg.byzantineAfter > 0 {
				time.Sleep(cfg.byzantineAfter)
			}
			byz.WithholdGossip()
			logf("BYZANTINE mode=withhold engaged: outbound block/tx gossip suppressed")
		}()
	case "mute-logs":
		muteLogs = true // engaged below, once the probing agent exists
	default:
		return fmt.Errorf("unknown -byzantine mode %q (known: withhold, mute-logs)", cfg.byzantine)
	}
	if chainStore != nil {
		st := node.Stats()
		logf("restored chain height=%d (%d blocks reloaded, %d dropped from damaged tail)",
			node.Chain().Height(), st.BlocksReloaded, st.ReloadDropped)
	}

	li, err := logger.NewLI(logger.LIConfig{
		Name:        "li@" + cfg.tenant,
		Tenant:      cfg.tenant,
		Node:        node,
		Identity:    liIDs[cfg.tenant],
		Key:         key,
		Mode:        logger.SubmitAsync,
		FlushWindow: cfg.flushWindow,
	})
	if err != nil {
		return err
	}
	li.Start()
	defer li.Stop()
	li.SetTracer(tracer)
	gatherer.Register(drams.LICollector(cfg.tenant, li))
	agent := logger.NewAgent("agent@"+cfg.tenant, cfg.tenant, li, clock.System{})
	gatherer.Register(drams.AgentCollector(cfg.tenant, agent))
	if muteLogs {
		go func() {
			if cfg.byzantineAfter > 0 {
				time.Sleep(cfg.byzantineAfter)
			}
			agent.Mute(core.KindPEPResponse)
			logf("BYZANTINE mode=mute-logs engaged: pep.response records suppressed")
		}()
	}

	// Every process watches the chain-replicated policy lifecycle; the
	// infrastructure process additionally hot-reloads its PDP/PRP and
	// feeds the monitor.
	var infra *infraPlane
	if isInfra {
		infra, err = newInfraPlane(tr, node, agent, analyserID, key, logf)
		if err != nil {
			return err
		}
		infra.pdpService.SetTracer(tracer)
		infra.analyser.SetTracer(tracer)
		infra.monitor.SetTracer(tracer)
		gatherer.Register(drams.PDPCollector(infra.pdpService, infra.pdp))
		gatherer.Register(drams.AnalyserCollector(infra.analyser))
		gatherer.Register(drams.MonitorCollector(infra.monitor))
	}
	watcherCfg := pap.WatcherConfig{Node: node}
	if infra != nil {
		watcherCfg.PDP = infra.pdp
		watcherCfg.PRP = infra.prp
	}
	watcherCfg.OnEvent = func(ev pap.Event) {
		switch ev.Kind {
		case pap.EventStaged:
			logf("policy %s staged (digest %s, activates at height %d)", ev.Version, ev.Digest.Short(), ev.Height)
		case pap.EventActivated:
			logf("policy %s activated at height %d digest %s", ev.Version, ev.Height, ev.Digest.Short())
		case pap.EventRejected:
			logf("policy %s REJECTED: %s", ev.Version, ev.Err)
		}
		if infra != nil {
			infra.onPolicyEvent(ev)
		}
	}
	watcher, err := pap.NewWatcher(watcherCfg)
	if err != nil {
		return err
	}
	watcher.Start()
	defer watcher.Stop()
	gatherer.Register(drams.WatcherCollector(watcher))
	health.AddReady("policy-watcher", drams.WatcherReady(node, watcher))

	// The infrastructure process publishes the initial policy on-chain and
	// waits for its own watcher to activate it — unless the chain restored
	// from -data-dir already carries an active policy, which re-anchoring
	// would downgrade fleet-wide.
	if infra != nil {
		activeVer := ""
		node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
			activeVer, _, _ = core.ReadActivePolicy(st)
		})
		if activeVer != "" {
			logf("restored chain already carries active policy %s; skipping initial anchor", activeVer)
		} else {
			admin := pap.NewAdmin(node, papID)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			if _, err := admin.UpdatePolicy(ctx, infra.initial, pap.UpdateOptions{}); err != nil {
				cancel()
				return fmt.Errorf("anchor policy: %w", err)
			}
			if err := watcher.WaitForVersion(ctx, infra.initial.Version); err != nil {
				cancel()
				return err
			}
			cancel()
			logf("policy %s anchored on-chain and loaded", infra.initial.Version)
		}
	}

	var pep *federation.PEPService
	if !isInfra {
		pep, err = federation.NewPEPService(tr, cfg.tenant, 5*time.Second)
		if err != nil {
			return err
		}
		pep.SetProbe(agent)
		pep.SetTracer(tracer)
		gatherer.Register(drams.PEPCollector(cfg.tenant, pep))
	}

	stopCh := make(chan os.Signal, 2)
	signal.Notify(stopCh, os.Interrupt, syscall.SIGTERM)
	deadline := make(<-chan time.Time)
	if cfg.runFor > 0 {
		deadline = time.After(cfg.runFor)
	}
	done := make(chan struct{})
	defer close(done)

	// Actively pull the chain suffix this process is missing (restart from
	// -data-dir, late join) over batched bc.getrange calls instead of
	// waiting for the next gossiped block to trigger orphan resolution.
	// Non-producing processes report not-ready until that first sync
	// round completes, so a restarted member is drained while it rejoins.
	synced := make(chan struct{})
	if !(isInfra || cfg.mine) {
		health.AddReady("sync", func() error {
			select {
			case <-synced:
				return nil
			default:
				return fmt.Errorf("initial chain catch-up in progress (height %d)", node.Chain().Height())
			}
		})
	}
	started()
	go catchUp(node, nodePeers, cfg.catchupDelay, logf, done, synced)

	// Any member can administer policies: push the -policy-file update
	// once the local chain reaches the trigger height.
	if cfg.policyFile != "" {
		go pushPolicyFile(node, papID, watcher, cfg, logf, done)
	}

	// Edge processes drive end-to-end decisions once the PDP is reachable
	// (fire-and-forget: the daemon keeps serving until signalled/-run-for).
	if pep != nil && (cfg.requests > 0 || cfg.requestEvery > 0) {
		go driveRequests(pep, cfg, logf, done)
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
			st := node.Stats()
			logf("status height=%d digest=%s mined=%d accepted=%d",
				node.Chain().Height(), node.Chain().StateDigest().Short(),
				st.BlocksMined, st.BlocksAccepted)
		}
	}
}

// infraPlane bundles the infrastructure tenant's extras: the PDP service,
// PRP, analyser and monitor, plus the initial policy to anchor.
type infraPlane struct {
	pdp        *xacml.PDP
	pdpService *federation.PDPService
	prp        *xacml.PRP
	analyser   *core.Analyser
	monitor    *core.Monitor
	initial    *xacml.PolicySet
	logf       func(string, ...any)
}

// newInfraPlane brings up the PDP service and the monitoring plane; the
// policy itself is anchored on-chain by the caller through a pap.Admin and
// applied by the process's watcher like on every other member.
func newInfraPlane(tr *tcp.Transport, node *blockchain.Node, agent *logger.Agent,
	analyserID *crypto.Identity, key crypto.Key,
	logf func(string, ...any)) (*infraPlane, error) {
	// The role-gated standard policy (canonical copy in xacml.StandardPolicy);
	// edges never see the policy itself, only its decisions.
	pdp := xacml.NewPDP(nil)
	pdp.SetCache(xacml.NewDecisionCache(0))
	pdpService, err := federation.NewPDPService(tr, pdp)
	if err != nil {
		return nil, err
	}
	pdpService.SetProbe(agent)

	analyser, err := core.NewAnalyser("analyser", node, analyserID, key)
	if err != nil {
		return nil, err
	}
	analyser.Start()

	monitor := core.NewMonitor(node, clock.System{})
	monitor.OnAlert(func(a core.Alert) {
		logf("ALERT type=%s req=%s tenant=%s", a.Type, a.ReqID, a.Tenant)
	})
	monitor.Start()
	return &infraPlane{
		pdp: pdp, pdpService: pdpService, prp: xacml.NewPRP(),
		analyser: analyser, monitor: monitor,
		initial: xacml.StandardPolicy("v1"), logf: logf,
	}, nil
}

// onPolicyEvent keeps the analyser's compiled policy in step with the
// watcher-applied activations and feeds rollout events into the monitor.
func (ip *infraPlane) onPolicyEvent(ev pap.Event) {
	if ev.Kind == pap.EventActivated {
		if ps, err := ip.prp.Version(ev.Version); err == nil {
			ip.analyser.LoadPolicy(ps)
			_ = ip.analyser.VerifyPolicyAnchor()
		}
	}
	if alert, ok := pap.MonitorEvent(ev); ok {
		ip.monitor.PublishPolicyEvent(alert)
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
// reaches the trigger height, then waits for the local flip.
func pushPolicyFile(node *blockchain.Node, papID *crypto.Identity, watcher *pap.Watcher,
	cfg daemonConfig, logf func(string, ...any), done <-chan struct{}) {
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
	admin := pap.NewAdmin(node, papID)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	prop, err := admin.UpdatePolicy(ctx, ps, pap.UpdateOptions{ActivateDelta: cfg.policyDelta})
	if err != nil {
		logf("policy push FAILED: %v", err)
		return
	}
	logf("policy %s pushed (digest %s), fleet activates at height %d",
		prop.Version, prop.Digest.Short(), prop.ActivateHeight)
	if err := watcher.WaitForVersion(ctx, prop.Version); err != nil {
		logf("policy push: local flip not observed: %v", err)
	}
}

// driveRequests issues access decisions through the local PEP, retrying
// until the remote PDP is reachable and the policy is active. With
// -request-every it keeps going until shutdown, logging each decision with
// the policy version it was made under — the observable trace of a
// fleet-wide policy flip.
func driveRequests(pep *federation.PEPService, cfg daemonConfig, logf func(string, ...any), done <-chan struct{}) {
	tenantDigest := crypto.SumAll([]byte(cfg.tenant))
	ids := idgen.NewSeeded(cfg.seed ^ binary.BigEndian.Uint64(tenantDigest[:8]))
	roles := []string{"doctor", "nurse", "intern"}
	decideOnce := func(i int, retries int) bool {
		role := roles[i%len(roles)]
		req := xacml.NewRequest(ids.Next().String()).
			Add(xacml.CatSubject, "role", xacml.String(role)).
			Add(xacml.CatAction, "op", xacml.String("read")).
			Add(xacml.CatResource, "type", xacml.String("record"))
		for attempt := 0; ; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			enf, err := pep.Decide(ctx, req)
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

// ---------------------------------------------------------------------------
// Cluster-sim mode (the original behaviour).

func runClusterSim(nodes, difficulty int, height uint64, latency time.Duration) error {
	var seed [32]byte
	seed[0] = 1
	writer := crypto.NewIdentityFromSeed("writer", seed)

	registry := contract.NewRegistry()
	registry.MustRegister(core.NewLogMatchContract(core.MatchConfig{TimeoutBlocks: 1 << 20}))
	registry.MustRegister(&contract.KVContract{ContractName: "kv"})
	registry.MustRegister(&contract.AnchorContract{ContractName: "anchor"})

	net := netsim.New(netsim.Config{BaseLatency: latency, Jitter: latency, Seed: 11})
	defer net.Close()

	chainCfg := blockchain.Config{
		Difficulty: uint8(difficulty),
		Identities: []crypto.PublicIdentity{writer.Public()},
		Registry:   registry,
	}
	var cluster []*blockchain.Node
	var names []string
	for i := 0; i < nodes; i++ {
		names = append(names, fmt.Sprintf("node-%d", i))
	}
	for i := 0; i < nodes; i++ {
		n, err := blockchain.NewNode(blockchain.NodeConfig{
			Name:               names[i],
			Chain:              chainCfg,
			Network:            net,
			Peers:              names,
			Mine:               i == 0, // designated producer
			EmptyBlockInterval: 20 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		defer n.Stop()
		cluster = append(cluster, n)
		n.Start()
	}
	fmt.Printf("cluster of %d nodes, difficulty %d bits, producer node-0\n", nodes, difficulty)

	// Feed a stream of kv transactions while the chain grows.
	sender := blockchain.NewSender(cluster[0], writer)
	go func() {
		for i := 0; ; i++ {
			raw, err := json.Marshal(contract.KVArgs{Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
			if err != nil {
				return
			}
			if _, err := sender.Send(contract.Call{Contract: "kv", Method: "put", Args: raw}); err != nil {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	waitHeight := func(h uint64, timeout time.Duration) error {
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if cluster[0].Chain().Height() >= h {
				return nil
			}
			time.Sleep(10 * time.Millisecond)
		}
		return fmt.Errorf("timeout waiting for height %d (at %d)", h, cluster[0].Chain().Height())
	}

	if err := waitHeight(height/2, 2*time.Minute); err != nil {
		return err
	}
	fmt.Printf("reached height %d — injecting partition {node-0} | {rest}\n", cluster[0].Chain().Height())
	rest := names[1:]
	net.Partition(names[:1], rest)
	time.Sleep(500 * time.Millisecond)
	fmt.Println("healing partition")
	net.Heal()
	for _, n := range cluster[1:] {
		if err := n.SyncFrom(names[0]); err != nil {
			fmt.Printf("  %s sync: %v\n", n.Name(), err)
		}
	}

	if err := waitHeight(height, 5*time.Minute); err != nil {
		return err
	}

	// Convergence check.
	deadline := time.Now().Add(time.Minute)
	for {
		base := cluster[0].Chain().StateDigest()
		ok := true
		for _, n := range cluster[1:] {
			if n.Chain().StateDigest() != base {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nodes did not converge")
		}
		time.Sleep(20 * time.Millisecond)
	}

	fmt.Println()
	fmt.Printf("%-8s %-8s %-10s %-10s %s\n", "node", "height", "mined", "accepted", "state-digest")
	for _, n := range cluster {
		st := n.Stats()
		fmt.Printf("%-8s %-8d %-10d %-10d %s\n",
			n.Name(), n.Chain().Height(), st.BlocksMined, st.BlocksAccepted,
			n.Chain().StateDigest().Short())
	}
	ns := net.Stats()
	fmt.Printf("\nnetwork: sent=%d delivered=%d dropped=%d bytes=%d\n", ns.Sent, ns.Delivered, ns.Dropped, ns.Bytes)
	fmt.Println("cluster converged ✓")
	return nil
}
