// Package drams is the public API of the DRAMS reproduction: the
// Decentralised Runtime Access Monitoring System of "Decentralised Runtime
// Monitoring for Access Control Systems in Cloud Federations" (Ferdous,
// Margheri, Paci, Yang, Sassone — ICDCS 2017).
//
// A Deployment assembles the full Figure-1 architecture on one machine (or,
// with OpenMember, one cloud's slice of it per process):
//
//   - a FaaS federation topology (clouds, edge tenants, the infrastructure
//     tenant) over a simulated network;
//   - the XACML access-control plane: one PDP in the infrastructure tenant,
//     fed from the on-chain policy contract, and a PEP at every tenant edge;
//   - a private proof-of-work smart-contract blockchain with one node per
//     cloud, running the DRAMS log-match contract;
//   - a probing agent and a Logging Interface per tenant, encrypting and
//     signing observations;
//   - the Analyser re-deriving expected decisions, and the off-chain
//     Monitor aggregating security alerts.
//
// Quickstart (the client-centric surface):
//
//	dep, err := drams.Open(policy, drams.WithSeed(7))
//	defer dep.Close()
//	client, err := dep.Client("tenant-1")         // per-tenant handle
//	enf, err := client.Decide(ctx, req)           // normal access control
//	enfs, err := client.DecideBatch(ctx, reqs)    // pipelined decisions
//	dep.TamperPEP("tenant-1", &drams.Tamper{      // inject an attack
//	    Enforce: func(xacml.Decision) xacml.Decision { return xacml.Permit },
//	})
//	alerts, stop, err := dep.Alerts(ctx, drams.AlertFilter{}) // streaming alerts
//	defer stop()
//
// Open and OpenMember are the only constructors; everything beyond the
// policy is an option: WithTopology, WithSeed, WithDifficulty,
// WithTimeoutBlocks, WithEmptyBlockInterval, WithMonitoring, WithNetwork,
// WithTransport, WithDataDir and WithMineAll.
// WaitForAlert and WaitForMatched are the one-shot form of the Alerts
// stream.
package drams

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

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
	"drams/internal/trace"
	"drams/internal/transport"
	"drams/internal/xacml"
)

// Re-exported aliases so example applications can use the drams package as
// the single entry point for common types.
type (
	// Enforcement is what a PEP returns to the application.
	Enforcement = federation.Enforcement
	// Alert is a DRAMS security alert.
	Alert = core.Alert
	// AlertType classifies alerts.
	AlertType = core.AlertType
	// AlertFilter selects which monitor events a subscription receives.
	AlertFilter = core.AlertFilter
	// Tamper injects attacks at a PEP's data path.
	Tamper = federation.Tamper
)

// AlertMatched is the synthetic stream event emitted on subscription
// channels when an exchange completes cleanly on-chain.
const AlertMatched = core.AlertMatched

// config is what the options set. The zero value plus a policy is usable.
type config struct {
	// topology describes the federation; defaults to two clouds with one
	// edge tenant each plus the infrastructure tenant (Figure 1).
	topology *federation.Topology
	// policy is the initial access-control policy set. Required wherever the
	// infrastructure tenant is hosted (always, unless OpenMember hosts an
	// edge cloud).
	policy *xacml.PolicySet
	// difficulty is the PoW difficulty in leading-zero bits (default 8).
	difficulty uint8
	// timeoutBlocks is the log-match M3 window Δ (default 5 blocks).
	timeoutBlocks uint64
	// emptyBlockInterval keeps blocks flowing when idle (default 25ms).
	emptyBlockInterval time.Duration
	// monitorOff disables probes, analyser and monitor entirely — the
	// baseline for overhead experiments.
	monitorOff bool
	// netLatency/netJitter shape the simulated federation network.
	netLatency, netJitter time.Duration
	// seed makes network behaviour and request IDs reproducible.
	seed uint64
	// mineAll makes every cloud's node mine (more realistic, more forks).
	// Default: only the infrastructure cloud's node mines while all nodes
	// validate and gossip — the designated-producer configuration a
	// private federation chain would use.
	mineAll bool
	// transport supplies the wire backend the deployment runs on. Default:
	// a netsim.Network shaped by netLatency/netJitter/seed. Providing a
	// transport (e.g. a transport/tcp instance) makes the deployment's
	// components reachable from other processes; netLatency/netJitter are
	// then ignored and netsim-only fault injection (Deployment.Net) is
	// unavailable.
	transport transport.Transport
	// dataDir, when set, makes every chain node durable: each cloud's node
	// opens its block log under this directory, re-validates and replays
	// its persisted chain at construction, and writes every best-chain
	// change to the log from then on. Reopening a deployment
	// with the same dataDir (and seed/topology) resumes the chain instead
	// of starting a fresh genesis, and the policy watcher reconciles with
	// the restored on-chain policy state — the initial policy is only
	// published when the chain has no active policy yet.
	dataDir string

	// local is the one cloud of topology this process hosts ("" hosts them
	// all). Set only by OpenMember.
	local string
}

// hosts reports whether this process assembles the given cloud's slice.
func (c *config) hosts(cloud string) bool { return c.local == "" || c.local == cloud }

// Deployment is a running DRAMS federation.
type Deployment struct {
	topology *federation.Topology

	// Transport is the wire backend everything runs on.
	Transport transport.Transport
	// Net is the netsim view of Transport when the deployment runs on the
	// simulator (the default) — the handle for fault injection (Partition,
	// SetLinkFault, ...). Nil when a real transport was supplied.
	Net   *netsim.Network
	nodes map[string]*blockchain.Node // by cloud name

	ownsTransport bool

	PDP        *xacml.PDP
	pdpService *federation.PDPService
	peps       map[string]*federation.PEPService // by tenant
	LIs        map[string]*logger.LI             // by tenant
	Agents     map[string]*logger.Agent          // by tenant
	Analyser   *core.Analyser
	Monitor    *core.Monitor

	registry *metrics.Registry
	gatherer *obs.Gatherer
	tracer   *trace.Tracer
	health   *obs.Health

	// home is the process's node: the infrastructure cloud's where hosted,
	// else the one local cloud's.
	home       *blockchain.Node
	papID      *crypto.Identity
	papAdmin   *pap.Admin
	watcher    *pap.Watcher
	policyHook atomic.Pointer[func(PolicyEvent)]
	ids        *idgen.Generator
	registered []string // endpoint addresses to release on Close (caller-owned transport)
	closed     bool
}

// open assembles and starts the slice of the topology this process hosts
// (local; "" hosts them all): per hosted cloud a chain node, per tenant on it
// a PEP, a probing agent and a Logging Interface, and PDP/analyser/monitor
// where the infrastructure tenant lives. Chain peers and the
// allowlist come from the whole topology, so slices opened by different
// processes form one federation.
func open(policy *xacml.PolicySet, local string, opts []Option) (_ *Deployment, err error) {
	cfg := config{policy: policy, local: local}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.topology == nil {
		cfg.topology = federation.SimpleTopology("faas", 2)
	}
	if err := cfg.topology.Validate(); err != nil {
		return nil, err
	}
	infra, err := cfg.topology.InfrastructureTenant()
	if err != nil {
		return nil, err
	}
	hostsInfra := cfg.hosts(infra.Cloud)
	if hostsInfra && cfg.policy == nil {
		return nil, errors.New("drams: a policy is required")
	}
	if cfg.emptyBlockInterval == 0 {
		cfg.emptyBlockInterval = 25 * time.Millisecond
	}
	var nodeNames []string
	for _, c := range cfg.topology.Clouds {
		nodeNames = append(nodeNames, "node@"+c.Name)
	}
	if cfg.local != "" && !slices.Contains(nodeNames, "node@"+cfg.local) {
		return nil, fmt.Errorf("drams: cloud %q is not in the topology", cfg.local)
	}

	d := &Deployment{
		topology: cfg.topology,
		nodes:    make(map[string]*blockchain.Node),
		peps:     make(map[string]*federation.PEPService),
		LIs:      make(map[string]*logger.LI),
		Agents:   make(map[string]*logger.Agent),
		// The request-ID stream is random, never seeded: members share the
		// seed, and a deployment reopened from its data dir is a new process
		// with the same one, so a seeded stream would mint IDs another slice,
		// or this one before its restart, already put on chain, and the
		// contract reads a second record under a used ID as equivocation.
		ids: idgen.New(),
	}
	d.initObservability()
	if cfg.transport != nil {
		d.Transport = cfg.transport
		d.Net, _ = cfg.transport.(*netsim.Network)
	} else {
		d.Net = netsim.New(netsim.Config{
			BaseLatency: cfg.netLatency,
			Jitter:      cfg.netJitter,
			Seed:        cfg.seed,
		})
		d.Transport = d.Net
		d.ownsTransport = true
	}
	defer func() {
		if err != nil {
			d.Close() // tear down what was assembled before the failure
		}
	}()
	// Consensus material (identities, allowlist, shared key, contract
	// registry, chain config), derived from the whole topology.
	var tenantNames []string
	for _, ten := range d.topology.Tenants {
		tenantNames = append(tenantNames, ten.Name)
	}
	material := NewChainMaterial(cfg.seed, tenantNames, ChainParams{
		Difficulty:     cfg.difficulty,
		TimeoutBlocks:  cfg.timeoutBlocks,
		RequireVerdict: !cfg.monitorOff,
	})
	d.papID = material.PAPID

	// One chain node per hosted cloud. By default only the infrastructure
	// cloud's node mines (designated producer); every node validates.
	if cfg.dataDir != "" {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			return nil, fmt.Errorf("drams: data dir: %w", err)
		}
	}
	for _, c := range d.topology.Clouds {
		if !cfg.hosts(c.Name) {
			continue
		}
		var blockLog string
		if cfg.dataDir != "" {
			blockLog = filepath.Join(cfg.dataDir, "chain-"+c.Name+".wal")
		}
		node, err := blockchain.NewNode(blockchain.NodeConfig{
			Name:               "node@" + c.Name,
			Chain:              material.Chain,
			Network:            d.Transport,
			Peers:              nodeNames,
			Mine:               cfg.mineAll || c.Name == infra.Cloud,
			EmptyBlockInterval: cfg.emptyBlockInterval,
			BlockLog:           blockLog,
		})
		if err != nil {
			return nil, err
		}
		d.nodes[c.Name] = node
		d.registered = append(d.registered, "node@"+c.Name)
	}
	for _, node := range d.nodes {
		node.Start()
	}
	// The process's node: the policy watcher, the PAP handle and the
	// readiness gates hang off the infrastructure cloud's node where it is
	// hosted, else off the one local node.
	d.home = d.nodes[infra.Cloud]
	if !hostsInfra {
		d.home = d.nodes[cfg.local]
	}

	// Access-control plane.
	if hostsInfra {
		d.PDP = xacml.NewPDP(nil)
		d.pdpService, err = federation.NewPDPService(d.Transport, d.PDP)
		if err != nil {
			return nil, err
		}
		d.registered = append(d.registered, federation.PDPAddr)
	}
	for _, ten := range d.topology.EdgeTenants() {
		if !cfg.hosts(ten.Cloud) {
			continue
		}
		pep, err := federation.NewPEPService(d.Transport, ten.Name, 0)
		if err != nil {
			return nil, err
		}
		d.peps[ten.Name] = pep
		d.registered = append(d.registered, federation.PEPAddr(ten.Name))
	}

	d.papAdmin = pap.NewAdmin(d.home, d.papID)

	// Monitoring plane (unless disabled).
	if !cfg.monitorOff {
		for _, ten := range d.topology.Tenants {
			if !cfg.hosts(ten.Cloud) {
				continue
			}
			li, err := logger.NewLI(logger.LIConfig{
				Name:     "li@" + ten.Name,
				Tenant:   ten.Name,
				Node:     d.nodes[ten.Cloud],
				Identity: material.LIIdentities[ten.Name],
				Key:      material.Key,
			})
			if err != nil {
				return nil, err
			}
			li.Start()
			d.LIs[ten.Name] = li
			d.Agents[ten.Name] = logger.NewAgent("agent@"+ten.Name, ten.Name, li, clock.System{})
		}
		// Attach probes.
		for tenant, pep := range d.peps {
			pep.SetProbe(d.Agents[tenant])
		}
		if hostsInfra {
			d.pdpService.SetProbe(d.Agents[infra.Name])

			// Analyser: per Figure 1 it runs in a different cloud section
			// than the access-control components — attach it to the node of
			// another hosted cloud when there is one.
			analyserNode := d.home
			for _, c := range d.topology.Clouds {
				if node, ok := d.nodes[c.Name]; ok && c.Name != infra.Cloud {
					analyserNode = node
					break
				}
			}
			d.Analyser, err = core.NewAnalyser("analyser", analyserNode, material.AnalyserID, material.Key)
			if err != nil {
				return nil, err
			}
			d.Analyser.Start()

			d.Monitor = core.NewMonitor(d.home, clock.System{})
			d.Monitor.Start()
		}
	}

	// The PAP watcher applies the chain-replicated policy lifecycle
	// locally: it follows the active version its node's replica holds,
	// flips the PDP when that changes, and runs the OnPolicyEvent handler.
	// The analyser needs none of this: it reads the policy it checks from
	// its own node's replica. A slice without the infrastructure tenant has
	// no PDP and only acknowledges the flips.
	d.watcher, err = pap.NewWatcher(pap.WatcherConfig{
		Node: d.home,
		PDP:  d.PDP,
		OnEvent: func(ev pap.Event) {
			if fn := d.policyHook.Load(); fn != nil {
				(*fn)(ev)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	d.watcher.Start()

	// Publish the initial policy — unless the chain (restored from the data
	// dir or synced from an existing federation) already carries an active
	// policy, in which case the watcher's Start has applied it
	// and re-publishing would downgrade the whole fleet.
	if hostsInfra && activePolicyVersion(d.home) == "" {
		if err := d.PublishPolicy(cfg.policy); err != nil {
			return nil, err
		}
	}
	d.wireObservability()
	return d, nil
}

// activePolicyVersion reads the chain's active policy version from the
// node's replica of the policy contract ("" before the first activation).
func activePolicyVersion(node *blockchain.Node) string {
	var active string
	node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
		active, _, _ = core.ReadActivePolicy(st)
	})
	return active
}

// OnPolicyEvent registers fn, replacing any earlier handler, to run on the
// watcher goroutine for every policy lifecycle transition from now on (keep
// it non-blocking). Transitions applied while the deployment was opening are
// not replayed; PolicyStats reports where they left it.
func (d *Deployment) OnPolicyEvent(fn func(PolicyEvent)) { d.policyHook.Store(&fn) }

// PublishPolicy publishes a policy set as a new on-chain version activated
// immediately: the PAP signs a PolicyUpdate transaction carrying the full
// serialized set, the policy contract anchors and schedules it, and the
// call returns once this deployment's watcher has hot-reloaded the PDP. It
// is a convenience wrapper over Admin.UpdatePolicy for the "new version,
// right now" case.
func (d *Deployment) PublishPolicy(ps *xacml.PolicySet) error {
	if ps == nil || ps.Version == "" {
		return errors.New("drams: policy set with a version is required")
	}
	if d.PDP == nil {
		return errors.New("drams: this member does not host the infrastructure tenant; publish through Admin")
	}
	var anchored bool
	d.home.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
		_, anchored = core.ReadPolicyDigest(st, ps.Version)
	})
	if anchored {
		return fmt.Errorf("drams: version %q already published", ps.Version)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := d.papAdmin.UpdatePolicy(ctx, ps, pap.UpdateOptions{}); err != nil {
		return fmt.Errorf("drams: anchor policy: %w", err)
	}
	if err := d.watcher.WaitForVersion(ctx, ps.Version); err != nil {
		return fmt.Errorf("drams: activate policy: %w", err)
	}
	return nil
}

// NewRequestID mints a correlation ID for an access request.
func (d *Deployment) NewRequestID() string {
	return d.ids.Next().String()
}

// NewRequest builds an empty request with a fresh correlation ID.
func (d *Deployment) NewRequest() *xacml.Request {
	return xacml.NewRequest(d.NewRequestID())
}

// TamperPEP installs attack injection at a tenant's PEP (nil clears).
func (d *Deployment) TamperPEP(tenant string, t *Tamper) error {
	pep, err := d.PEP(tenant)
	if err != nil {
		return err
	}
	pep.SetTamper(t)
	return nil
}

// CompromisePDP swaps the PDP's evaluator through a wrapper — the attack
// framework uses this to model altered evaluation processes. Passing nil
// restores the honest PDP. It fails on a member that does not host the PDP:
// aim an attack campaign at the infrastructure slice.
func (d *Deployment) CompromisePDP(wrap func(xacml.Evaluator) xacml.Evaluator) error {
	if d.pdpService == nil {
		return errors.New("drams: this member does not host the PDP")
	}
	var ev xacml.Evaluator = d.PDP
	if wrap != nil {
		ev = wrap(d.PDP)
	}
	d.pdpService.SetEvaluator(ev)
	return nil
}

// WaitForAlert blocks until the monitor sees the given alert for reqID — the
// one-shot form of an Alerts subscription.
func (d *Deployment) WaitForAlert(ctx context.Context, reqID string, t AlertType) (Alert, error) {
	if d.Monitor == nil {
		return Alert{}, ErrMonitoringDisabled
	}
	return d.Monitor.WaitForAlert(ctx, reqID, t)
}

// WaitForMatched blocks until the exchange for reqID completed cleanly
// on-chain — the one-shot form of an Alerts subscription.
func (d *Deployment) WaitForMatched(ctx context.Context, reqID string) error {
	if d.Monitor == nil {
		return ErrMonitoringDisabled
	}
	return d.Monitor.WaitForMatched(ctx, reqID)
}

// InfraNode returns the blockchain node of the infrastructure tenant's
// cloud (the monitor's view); nil on a member hosting another cloud.
func (d *Deployment) InfraNode() *blockchain.Node {
	infra, err := d.topology.InfrastructureTenant()
	if err != nil {
		return nil
	}
	return d.nodes[infra.Cloud]
}

// Topology returns the federation topology.
func (d *Deployment) Topology() *federation.Topology { return d.topology }

// Close stops every component. Safe to call more than once.
func (d *Deployment) Close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.watcher != nil {
		d.watcher.Stop()
	}
	if d.Monitor != nil {
		d.Monitor.Stop()
	}
	if d.Analyser != nil {
		d.Analyser.Stop()
	}
	for _, li := range d.LIs {
		li.Stop()
	}
	for _, node := range d.nodes {
		node.Stop()
	}
	if d.Transport != nil {
		if d.ownsTransport {
			d.Transport.Close()
		} else {
			// Caller-owned transport: release our addresses so the caller
			// can keep using it (and even open a fresh deployment on it).
			for _, addr := range d.registered {
				d.Transport.Unregister(addr)
			}
		}
	}
}
