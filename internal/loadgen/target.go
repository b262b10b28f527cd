package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drams"
	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/federation"
	//lint:ignore depfree loadgen is harness wiring, not a component: it scrapes fleet /metrics endpoints via obs.ParseValues into BENCH reports
	"drams/internal/obs"
	"drams/internal/pap"
	"drams/internal/transport"
	"drams/internal/transport/tcp"
	"drams/internal/xacml"
)

// ErrChurnUnsupported is returned by targets that cannot kill/rejoin a
// member from inside the harness (the TCP target: its members are other
// OS processes, churned externally, e.g. by scripts/smoke_loadgen.sh).
var ErrChurnUnsupported = errors.New("loadgen: target does not support member churn")

// Target is the system under load. Implementations must be safe for
// concurrent Decide calls from the executor's worker pool.
type Target interface {
	// Tenants lists the edge tenants traffic is spread over.
	Tenants() []string
	// NewRequest mints a request with a fresh correlation ID.
	NewRequest() *xacml.Request
	// Decide runs one access decision through the tenant's PEP path.
	Decide(ctx context.Context, tenant string, req *xacml.Request) (drams.Enforcement, error)
	// FlipPolicy publishes ps as a new on-chain policy version and
	// returns once this target observes the fleet-wide activation.
	FlipPolicy(ctx context.Context, ps *xacml.PolicySet) error
	// Kill cuts the named edge tenant's federation member off;
	// Rejoin reconnects it and waits for chain catch-up.
	Kill(member string) error
	Rejoin(ctx context.Context, member string) error
	// Matched streams AlertMatched events for detection-latency
	// measurement; nil when the target has no monitor subscription.
	Matched() <-chan drams.Alert
	Close()
}

// MetricsScraper is an optional Target extension: a snapshot of the
// fleet's /metrics taken at run end, keyed by source, then full series
// name → value. cmd/drams-loadgen embeds it in the BENCH report so every
// archived run carries the fleet's counters next to its latency summary.
type MetricsScraper interface {
	ScrapeMetrics(ctx context.Context) map[string]map[string]float64
}

// BuiltinPolicy resolves a "name:version" spec (standard:v2,
// restricted:v2) to its policy set.
func BuiltinPolicy(spec string) (*xacml.PolicySet, error) {
	name, version, ok := strings.Cut(spec, ":")
	if !ok || version == "" {
		return nil, fmt.Errorf("loadgen: policy spec %q: want name:version", spec)
	}
	switch name {
	case "standard":
		return xacml.StandardPolicy(version), nil
	case "restricted":
		return xacml.RestrictedPolicy(version), nil
	}
	return nil, fmt.Errorf("loadgen: unknown policy %q (known: standard, restricted)", name)
}

// ---------------------------------------------------------------------------
// Netsim target: a full in-process deployment on the network simulator.

// NetsimConfig shapes the in-process deployment under load.
type NetsimConfig struct {
	// Clouds is the federation size (default 3: tenant-1..3 with the
	// infrastructure tenant sharing cloud-1).
	Clouds int
	// Seed pins network behaviour and identities (default 7).
	Seed uint64
	// Difficulty is the PoW difficulty in bits (default 8).
	Difficulty uint8
	// Monitoring enables the probes/analyser/monitor plane (needed for
	// alert-detection latency).
	Monitoring bool
	// NetLatency/NetJitter shape the simulated network.
	NetLatency, NetJitter time.Duration
	// EmptyBlockInterval is the idle block cadence (default 25ms).
	EmptyBlockInterval time.Duration
	// TimeoutBlocks is the M3 window (default 64, so churn-induced
	// half-logged exchanges do not time out mid-run by default).
	TimeoutBlocks uint64
}

// NetsimTarget drives a drams.Deployment over netsim, with fault-injection
// churn and in-process policy administration.
type NetsimTarget struct {
	dep     *drams.Deployment
	clients map[string]*drams.Client
	tenants []string

	alerts     <-chan drams.Alert
	stopAlerts func()
	alertCtx   context.CancelFunc

	mu     sync.Mutex
	killed map[string]bool
}

// NewNetsimTarget opens the deployment and connects per-tenant clients.
func NewNetsimTarget(cfg NetsimConfig) (*NetsimTarget, error) {
	if cfg.Clouds <= 0 {
		cfg.Clouds = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.Difficulty == 0 {
		cfg.Difficulty = 8
	}
	if cfg.EmptyBlockInterval <= 0 {
		cfg.EmptyBlockInterval = 25 * time.Millisecond
	}
	if cfg.TimeoutBlocks == 0 {
		cfg.TimeoutBlocks = 64
	}
	dep, err := drams.Open(xacml.StandardPolicy("v1"),
		drams.WithTopology(federation.SimpleTopology("faas", cfg.Clouds)),
		drams.WithSeed(cfg.Seed),
		drams.WithDifficulty(cfg.Difficulty),
		drams.WithMonitoring(cfg.Monitoring),
		drams.WithNetwork(cfg.NetLatency, cfg.NetJitter),
		drams.WithEmptyBlockInterval(cfg.EmptyBlockInterval),
		drams.WithTimeoutBlocks(cfg.TimeoutBlocks),
	)
	if err != nil {
		return nil, err
	}
	t := &NetsimTarget{
		dep:     dep,
		clients: make(map[string]*drams.Client),
		killed:  make(map[string]bool),
	}
	for _, ten := range dep.Topology().EdgeTenants() {
		c, err := dep.Client(ten.Name)
		if err != nil {
			dep.Close()
			return nil, err
		}
		t.clients[ten.Name] = c
		t.tenants = append(t.tenants, ten.Name)
	}
	if cfg.Monitoring {
		ctx, cancel := context.WithCancel(context.Background())
		ch, stop, err := dep.Alerts(ctx, drams.AlertFilter{
			Types:  []drams.AlertType{drams.AlertMatched},
			Buffer: 8192,
		})
		if err != nil {
			cancel()
			dep.Close()
			return nil, err
		}
		t.alerts, t.stopAlerts, t.alertCtx = ch, stop, cancel
	}
	return t, nil
}

// ScrapeMetrics snapshots the deployment's gatherer — the same sample
// set /metrics would serve — under the single source key "netsim".
func (t *NetsimTarget) ScrapeMetrics(context.Context) map[string]map[string]float64 {
	vals := obs.FlattenValues(t.dep.Gatherer().Gather())
	if vals == nil {
		return nil
	}
	return map[string]map[string]float64{"netsim": vals}
}

func (t *NetsimTarget) Tenants() []string          { return t.tenants }
func (t *NetsimTarget) NewRequest() *xacml.Request { return t.dep.NewRequest() }
func (t *NetsimTarget) Matched() <-chan drams.Alert {
	return t.alerts
}

func (t *NetsimTarget) Decide(ctx context.Context, tenant string, req *xacml.Request) (drams.Enforcement, error) {
	c, ok := t.clients[tenant]
	if !ok {
		return drams.Enforcement{}, fmt.Errorf("loadgen: unknown tenant %q", tenant)
	}
	return c.Decide(ctx, req)
}

func (t *NetsimTarget) FlipPolicy(ctx context.Context, ps *xacml.PolicySet) error {
	admin, err := t.dep.Admin(t.tenants[0])
	if err != nil {
		return err
	}
	return admin.UpdatePolicy(ctx, ps, drams.UpdateOptions{})
}

// Kill partitions the victim tenant's cloud node and PEP away from the
// rest of the federation: its requests fail, its Logging Interface cannot
// reach the chain, and the member stops following the head — the netsim
// equivalent of the process crash the TCP smoke script injects.
func (t *NetsimTarget) Kill(member string) error {
	ten, ok := t.dep.Topology().Tenant(member)
	if !ok {
		return fmt.Errorf("loadgen: unknown tenant %q", member)
	}
	infra, err := t.dep.Topology().InfrastructureTenant()
	if err != nil {
		return err
	}
	if ten.Infrastructure || ten.Cloud == infra.Cloud {
		return fmt.Errorf("loadgen: refusing to kill %q: its cloud %q hosts the infrastructure plane", member, ten.Cloud)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.killed[member] {
		return fmt.Errorf("loadgen: %q is already killed", member)
	}
	t.dep.Net.Partition([]string{"node@" + ten.Cloud, federation.PEPAddr(member)})
	t.killed[member] = true
	return nil
}

// Rejoin heals the partition and pulls the victim's node back to the
// federation head before returning.
func (t *NetsimTarget) Rejoin(ctx context.Context, member string) error {
	ten, ok := t.dep.Topology().Tenant(member)
	if !ok {
		return fmt.Errorf("loadgen: unknown tenant %q", member)
	}
	t.mu.Lock()
	if !t.killed[member] {
		t.mu.Unlock()
		return fmt.Errorf("loadgen: %q is not killed", member)
	}
	delete(t.killed, member)
	t.dep.Net.Heal()
	t.mu.Unlock()

	node, err := t.dep.Node(ten.Cloud)
	infraNode := t.dep.InfraNode()
	if err != nil || infraNode == nil {
		return fmt.Errorf("loadgen: no chain node for %q", member)
	}
	for {
		if err := node.SyncFrom(infraNode.Name()); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("loadgen: rejoin %q: %w", member, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (t *NetsimTarget) Close() {
	if t.stopAlerts != nil {
		t.stopAlerts()
	}
	if t.alertCtx != nil {
		t.alertCtx()
	}
	t.dep.Close()
}

// ---------------------------------------------------------------------------
// TCP target: an external multi-process federation driven over real sockets.

// tcpPEPTimeout bounds one PEP→PDP round-trip.
const tcpPEPTimeout = 5 * time.Second

// TCPConfig joins the harness to a running drams-node federation.
type TCPConfig struct {
	// Peers are the daemons' advertise addresses (host:port).
	Peers []string
	// Edges are the federation's edge tenant names (must match the
	// daemons' -federation flag).
	Edges []string
	// Seed must match the daemons' -seed (identities and the chain
	// allowlist derive from it).
	Seed uint64
	// Difficulty/TimeoutBlocks are the consensus-critical knobs and must
	// match the daemons'.
	Difficulty    uint8
	TimeoutBlocks uint64
	// ListenAddr is this process's bind address (default 127.0.0.1:0).
	ListenAddr string
	// DialTimeout bounds the wait for the remote PDP to become routable
	// (default 15s).
	DialTimeout time.Duration
	// MetricsAddrs are the daemons' -metrics-addr endpoints (host:port);
	// when set, ScrapeMetrics pulls each one's /metrics at run end.
	MetricsAddrs []string
}

// TCPTarget joins a live federation as a non-mining member: it runs its
// own chain node (so it can publish policy updates through the on-chain
// PAP and observe their fleet-wide activation from its local state) and
// one local PEP per edge tenant (named lg-<tenant> to avoid colliding
// with the daemons' own PEPs) talking to the remote PDP over TCP.
type TCPTarget struct {
	tr           *tcp.Transport
	node         *blockchain.Node
	peps         map[string]*federation.PEPService
	tenants      []string
	admin        *pap.Admin
	metricsAddrs []string

	reqCounter atomic.Uint64
	stop       chan struct{}
	stopped    sync.WaitGroup
}

// NewTCPTarget connects, joins the chain, and waits for the remote PDP.
func NewTCPTarget(cfg TCPConfig) (*TCPTarget, error) {
	if len(cfg.Peers) == 0 || len(cfg.Edges) == 0 {
		return nil, fmt.Errorf("loadgen: tcp target needs peers and edge tenants")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 15 * time.Second
	}
	tr, err := tcp.New(tcp.Config{ListenAddr: cfg.ListenAddr, Peers: cfg.Peers})
	if err != nil {
		return nil, err
	}
	tenants := append(append([]string{}, cfg.Edges...), "infrastructure")
	material := drams.NewChainMaterial(cfg.Seed, tenants, drams.ChainParams{
		Difficulty:     cfg.Difficulty,
		TimeoutBlocks:  cfg.TimeoutBlocks,
		RequireVerdict: true,
	})
	var nodePeers []string
	for _, ten := range tenants {
		nodePeers = append(nodePeers, "node@"+ten)
	}
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name:               "node@loadgen",
		Chain:              material.Chain,
		Network:            tr,
		Peers:              nodePeers,
		Mine:               false,
		EmptyBlockInterval: 50 * time.Millisecond,
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	node.Start()

	t := &TCPTarget{
		tr:           tr,
		node:         node,
		peps:         make(map[string]*federation.PEPService),
		tenants:      append([]string{}, cfg.Edges...),
		admin:        pap.NewAdmin(node, material.PAPID),
		metricsAddrs: append([]string{}, cfg.MetricsAddrs...),
		stop:         make(chan struct{}),
	}
	fail := func(err error) (*TCPTarget, error) {
		t.Close()
		return nil, err
	}
	if err := waitAddr(tr, federation.PDPAddr, cfg.DialTimeout); err != nil {
		return fail(err)
	}
	for _, ten := range cfg.Edges {
		pep, err := federation.NewPEPService(tr, "lg-"+ten, tcpPEPTimeout)
		if err != nil {
			return fail(err)
		}
		t.peps[ten] = pep
	}
	// Chain catch-up: the daemons' nodes do not list node@loadgen as a
	// gossip peer, so actively pull the head on a short cadence (the same
	// batched range-sync a restarted daemon uses).
	t.stopped.Add(1)
	go func() {
		defer t.stopped.Done()
		ticker := time.NewTicker(250 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-ticker.C:
				for _, ten := range tenants {
					if t.node.SyncFrom("node@"+ten) == nil {
						break
					}
				}
			}
		}
	}()
	return t, nil
}

// waitAddr polls the transport's routing table until addr is reachable.
func waitAddr(tr transport.Transport, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, a := range tr.Addresses() {
			if a == addr {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("loadgen: %q never became routable (federation not up?)", addr)
}

func (t *TCPTarget) Tenants() []string { return t.tenants }

func (t *TCPTarget) NewRequest() *xacml.Request {
	return xacml.NewRequest(fmt.Sprintf("lg-%012x", t.reqCounter.Add(1)))
}

func (t *TCPTarget) Decide(ctx context.Context, tenant string, req *xacml.Request) (drams.Enforcement, error) {
	pep, ok := t.peps[tenant]
	if !ok {
		return drams.Enforcement{}, fmt.Errorf("loadgen: unknown tenant %q", tenant)
	}
	return pep.Decide(ctx, req)
}

// FlipPolicy publishes the update through this member's own node (any
// member can administer; the transaction reaches the producers by gossip)
// and waits until the local chain — synced on the catch-up cadence —
// reports the new version active fleet-wide.
func (t *TCPTarget) FlipPolicy(ctx context.Context, ps *xacml.PolicySet) error {
	prop, err := t.admin.UpdatePolicy(ctx, ps, pap.UpdateOptions{ActivateDelta: 2})
	if err != nil {
		return err
	}
	for {
		var active string
		t.node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
			active, _, _ = core.ReadActivePolicy(st)
		})
		if active == prop.Version {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("loadgen: policy %s activation not observed: %w", prop.Version, ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// ScrapeMetrics pulls /metrics from each configured daemon endpoint,
// keyed by address. A member that fails to answer (crashed, no
// -metrics-addr) is skipped rather than failing the run — the report
// records what the surviving fleet exposed.
func (t *TCPTarget) ScrapeMetrics(ctx context.Context) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	client := &http.Client{Timeout: 5 * time.Second}
	for _, addr := range t.metricsAddrs {
		req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/metrics", nil)
		if err != nil {
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		vals, err := obs.ParseValues(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		out[addr] = vals
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (t *TCPTarget) Kill(string) error                    { return ErrChurnUnsupported }
func (t *TCPTarget) Rejoin(context.Context, string) error { return ErrChurnUnsupported }
func (t *TCPTarget) Matched() <-chan drams.Alert          { return nil }

func (t *TCPTarget) Close() {
	select {
	case <-t.stop:
	default:
		close(t.stop)
	}
	t.stopped.Wait()
	t.node.Stop()
	t.tr.Close()
}
