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
//   - the XACML access-control plane: one PDP + PRP in the infrastructure
//     tenant and a PEP at every tenant edge;
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
// The original surface — drams.New(Config), Deployment.Request,
// WaitForAlert/WaitForMatched — keeps working as thin shims over the
// client API.
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
	"drams/internal/store"
	"drams/internal/transport"
	"drams/internal/transport/tcp"
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

// Config configures a Deployment. The zero value plus a Policy is usable.
type Config struct {
	// Topology describes the federation; defaults to two clouds with one
	// edge tenant each plus the infrastructure tenant (Figure 1).
	Topology *federation.Topology
	// Policy is the initial access-control policy set. Required wherever the
	// infrastructure tenant is hosted (always, unless OpenMember hosts an
	// edge cloud).
	Policy *xacml.PolicySet
	// Difficulty is the PoW difficulty in leading-zero bits (default 8).
	Difficulty uint8
	// TimeoutBlocks is the log-match M3 window Δ (default 5 blocks).
	TimeoutBlocks uint64
	// RequireVerdict demands an analyser verdict per request (default
	// true; set DisableVerdicts to opt out).
	DisableVerdicts bool
	// EmptyBlockInterval keeps blocks flowing when idle (default 25ms).
	EmptyBlockInterval time.Duration
	// SubmitMode is the LI submission mode (default async).
	SubmitMode logger.SubmitMode
	// MonitorOff disables probes, analyser and monitor entirely — the
	// baseline for overhead experiments.
	MonitorOff bool
	// NetLatency/NetJitter shape the federation network.
	NetLatency, NetJitter time.Duration
	// Seed makes network behaviour and request IDs reproducible.
	Seed uint64
	// UseTPM seals the shared LI key in a per-tenant SoftTPM and unseals
	// it at LI boot (the §III System Integrity mitigation).
	UseTPM bool
	// MineAll makes every cloud's node mine (more realistic, more forks).
	// Default: only the infrastructure cloud's node mines while all nodes
	// validate and gossip — the designated-producer configuration a
	// private federation chain would use.
	MineAll bool
	// RemoteAgents separates probing agents from their Logging Interfaces:
	// each LI exposes its §II network endpoints and agents submit raw
	// observations over the tenant network (the LI derives digests, tags
	// and encryption, so K never leaves the LI). Default: in-process
	// agents.
	RemoteAgents bool
	// Transport supplies the wire backend the deployment runs on. Default:
	// a netsim.Network shaped by NetLatency/NetJitter/Seed. Providing a
	// transport (e.g. a transport/tcp instance) makes the deployment's
	// components reachable from other processes; NetLatency/NetJitter are
	// then ignored and netsim-only fault injection (Deployment.Net) is
	// unavailable.
	Transport transport.Transport
	// ListenAddr, when set (and Transport is nil), builds a TCP transport
	// listening on this host:port instead of the netsim default.
	ListenAddr string
	// TransportPeers seeds the TCP transport built for ListenAddr with
	// other processes' advertise addresses.
	TransportPeers []string
	// DataDir, when set, makes every chain node durable: each cloud's node
	// opens a WAL-backed store under this directory, re-validates and
	// replays its persisted chain at construction, and persists every
	// accepted block incrementally from then on. Reopening a deployment
	// with the same DataDir (and seed/topology) resumes the chain instead
	// of starting a fresh genesis, and the policy watcher reconciles with
	// the restored on-chain policy state — the initial Policy is only
	// published when the chain has no active policy yet.
	DataDir string

	// local is the one cloud of Topology this process hosts ("" hosts them
	// all). Set only by OpenMember.
	local string
}

// hosts reports whether this process assembles the given cloud's slice.
func (c *Config) hosts(cloud string) bool { return c.local == "" || c.local == cloud }

// Deployment is a running DRAMS federation.
type Deployment struct {
	topology *federation.Topology

	// Transport is the wire backend everything runs on.
	Transport transport.Transport
	// Net is the netsim view of Transport when the deployment runs on the
	// simulator (the default) — the handle for fault injection (Partition,
	// SetLinkFault, ...). Nil when a real transport was supplied.
	Net   *netsim.Network
	Nodes map[string]*blockchain.Node // by cloud name

	ownsTransport bool

	PDP          *xacml.PDP
	PDPService   *federation.PDPService
	PRP          *xacml.PRP
	PEPs         map[string]*federation.PEPService // by tenant
	LIs          map[string]*logger.LI             // by tenant
	Agents       map[string]*logger.Agent          // by tenant (in-process mode)
	RemoteAgents map[string]*logger.RemoteAgent    // by tenant (RemoteAgents mode)
	Analyser     *core.Analyser
	Monitor      *core.Monitor
	TPMs         map[string]*crypto.SoftTPM // by tenant (when UseTPM)

	Key crypto.Key

	registry *metrics.Registry
	gatherer *obs.Gatherer
	tracer   *obs.Tracer
	health   *obs.Health

	// home is the process's node: the infrastructure cloud's where hosted,
	// else the one local cloud's.
	home       *blockchain.Node
	papID      *crypto.Identity
	papAdmin   *pap.Admin
	watcher    *pap.Watcher
	policyHook atomic.Pointer[func(PolicyEvent)]
	ids        *idgen.Generator
	registered []string    // endpoint addresses to release on Close (caller-owned transport)
	stores     []*store.KV // per-node durable chain stores (DataDir mode)
	closed     bool
}

// probe is what a tenant's agent must implement for both hook points.
type probe interface {
	federation.PEPProbe
	federation.PDPProbe
}

// probeFor returns the tenant's agent regardless of agent mode.
func (d *Deployment) probeFor(tenant string) probe {
	if a, ok := d.RemoteAgents[tenant]; ok {
		return a
	}
	return d.Agents[tenant]
}

// New assembles and starts the slice of the topology this process hosts:
// per hosted cloud a chain node, per tenant on it a PEP, a probing agent and
// a Logging Interface, and PDP/PRP/analyser/monitor where the infrastructure
// tenant lives. Chain peers and the allowlist come from the whole topology,
// so slices opened by different processes form one federation.
func New(cfg Config) (_ *Deployment, err error) {
	if cfg.Topology == nil {
		cfg.Topology = federation.SimpleTopology("faas", 2)
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	infra, err := cfg.Topology.InfrastructureTenant()
	if err != nil {
		return nil, err
	}
	hostsInfra := cfg.hosts(infra.Cloud)
	if hostsInfra && cfg.Policy == nil {
		return nil, errors.New("drams: Config.Policy is required")
	}
	if cfg.EmptyBlockInterval == 0 {
		cfg.EmptyBlockInterval = 25 * time.Millisecond
	}
	if cfg.SubmitMode == 0 {
		cfg.SubmitMode = logger.SubmitAsync
	}
	var nodeNames []string
	for _, c := range cfg.Topology.Clouds {
		nodeNames = append(nodeNames, "node@"+c.Name)
	}
	ids := idgen.NewSeeded(cfg.Seed + 1)
	if cfg.local != "" {
		if !slices.Contains(nodeNames, "node@"+cfg.local) {
			return nil, fmt.Errorf("drams: cloud %q is not in the topology", cfg.local)
		}
		// Members share the seed, and a member reopened from its data dir
		// is a new process with the same one: a seeded request-ID stream
		// would mint IDs another slice — or this one before its restart —
		// already put on chain, and the contract reads a second record under
		// a used ID as equivocation. A member's stream is random instead.
		ids = idgen.New()
	}

	d := &Deployment{
		topology:     cfg.Topology,
		Nodes:        make(map[string]*blockchain.Node),
		PEPs:         make(map[string]*federation.PEPService),
		LIs:          make(map[string]*logger.LI),
		Agents:       make(map[string]*logger.Agent),
		RemoteAgents: make(map[string]*logger.RemoteAgent),
		TPMs:         make(map[string]*crypto.SoftTPM),
		ids:          ids,
	}
	d.initObservability()
	switch {
	case cfg.Transport != nil:
		d.Transport = cfg.Transport
		d.Net, _ = cfg.Transport.(*netsim.Network)
	case cfg.ListenAddr != "":
		tt, err := tcp.New(tcp.Config{ListenAddr: cfg.ListenAddr, Peers: cfg.TransportPeers})
		if err != nil {
			return nil, fmt.Errorf("drams: tcp transport: %w", err)
		}
		d.Transport = tt
		d.ownsTransport = true
	default:
		d.Net = netsim.New(netsim.Config{
			BaseLatency: cfg.NetLatency,
			Jitter:      cfg.NetJitter,
			Seed:        cfg.Seed,
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
	material := NewChainMaterial(cfg.Seed, tenantNames, ChainParams{
		Difficulty:     cfg.Difficulty,
		TimeoutBlocks:  cfg.TimeoutBlocks,
		RequireVerdict: !cfg.DisableVerdicts && !cfg.MonitorOff,
	})
	d.Key = material.Key
	d.papID = material.PAPID

	// One chain node per hosted cloud. By default only the infrastructure
	// cloud's node mines (designated producer); every node validates.
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("drams: data dir: %w", err)
		}
	}
	for _, c := range d.topology.Clouds {
		if !cfg.hosts(c.Name) {
			continue
		}
		var kv *store.KV
		if cfg.DataDir != "" {
			var err error
			kv, err = store.Open(filepath.Join(cfg.DataDir, "chain-"+c.Name+".wal"))
			if err != nil {
				return nil, fmt.Errorf("drams: open chain store for %s: %w", c.Name, err)
			}
			d.stores = append(d.stores, kv)
		}
		node, err := blockchain.NewNode(blockchain.NodeConfig{
			Name:               "node@" + c.Name,
			Chain:              material.Chain,
			Network:            d.Transport,
			Peers:              nodeNames,
			Mine:               cfg.MineAll || c.Name == infra.Cloud,
			EmptyBlockInterval: cfg.EmptyBlockInterval,
			Store:              kv,
		})
		if err != nil {
			return nil, err
		}
		d.Nodes[c.Name] = node
		d.registered = append(d.registered, "node@"+c.Name)
	}
	for _, node := range d.Nodes {
		node.Start()
	}
	// The process's node: the policy watcher, the PAP handle and the
	// readiness gates hang off the infrastructure cloud's node where it is
	// hosted, else off the one local node.
	d.home = d.Nodes[infra.Cloud]
	if !hostsInfra {
		d.home = d.Nodes[cfg.local]
	}

	// Access-control plane.
	if hostsInfra {
		d.PDP = xacml.NewPDP(nil)
		d.PDP.SetCache(xacml.NewDecisionCache(0))
		d.PRP = xacml.NewPRP()
		d.PDPService, err = federation.NewPDPService(d.Transport, d.PDP)
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
		d.PEPs[ten.Name] = pep
		d.registered = append(d.registered, federation.PEPAddr(ten.Name))
	}

	d.papAdmin = pap.NewAdmin(d.home, d.papID)

	// Monitoring plane (unless disabled).
	if !cfg.MonitorOff {
		for _, ten := range d.topology.Tenants {
			if !cfg.hosts(ten.Cloud) {
				continue
			}
			key := d.Key
			if cfg.UseTPM {
				tpm, err := crypto.NewSoftTPM(ten.Name)
				if err != nil {
					return nil, err
				}
				// Measured boot of the LI component, then seal/unseal K.
				if err := tpm.Extend(1, []byte("li-binary-v1")); err != nil {
					return nil, err
				}
				handle := tpm.Seal(1<<1, key[:])
				raw, err := tpm.Unseal(handle)
				if err != nil {
					return nil, fmt.Errorf("drams: TPM unseal for %s: %w", ten.Name, err)
				}
				copy(key[:], raw)
				d.TPMs[ten.Name] = tpm
			}
			li, err := logger.NewLI(logger.LIConfig{
				Name:     "li@" + ten.Name,
				Tenant:   ten.Name,
				Node:     d.Nodes[ten.Cloud],
				Identity: material.LIIdentities[ten.Name],
				Key:      key,
				Mode:     cfg.SubmitMode,
			})
			if err != nil {
				return nil, err
			}
			li.Start()
			d.LIs[ten.Name] = li
			if cfg.RemoteAgents {
				liAddr := "li-endpoint@" + ten.Name
				if err := li.Expose(d.Transport, liAddr); err != nil {
					return nil, err
				}
				d.registered = append(d.registered, liAddr)
				ra, err := logger.NewRemoteAgent(d.Transport, "agent@"+ten.Name, liAddr)
				if err != nil {
					return nil, err
				}
				d.RemoteAgents[ten.Name] = ra
				d.registered = append(d.registered, "agent@"+ten.Name)
			} else {
				d.Agents[ten.Name] = logger.NewAgent("agent@"+ten.Name, ten.Name, li, clock.System{})
			}
		}
		// Attach probes.
		for tenant, pep := range d.PEPs {
			pep.SetProbe(d.probeFor(tenant))
		}
		if hostsInfra {
			d.PDPService.SetProbe(d.probeFor(infra.Name))

			// Analyser: per Figure 1 it runs in a different cloud section
			// than the access-control components — attach it to the node of
			// another hosted cloud when there is one.
			analyserNode := d.home
			for _, c := range d.topology.Clouds {
				if node, ok := d.Nodes[c.Name]; ok && c.Name != infra.Cloud {
					analyserNode = node
					break
				}
			}
			d.Analyser, err = core.NewAnalyser("analyser", analyserNode, material.AnalyserID, d.Key)
			if err != nil {
				return nil, err
			}
			d.Analyser.Start()

			d.Monitor = core.NewMonitor(d.home, clock.System{})
			d.Monitor.Start()
		}
	}

	// The PAP watcher applies the chain-replicated policy lifecycle
	// locally: it stages announced versions, flips the PDP (purging the
	// decision cache) at each activation height, keeps the PRP and
	// analyser in step, and feeds rollout events into the monitor stream.
	// A slice without the infrastructure tenant has no PDP or PRP and only
	// acknowledges the flips.
	d.watcher, err = pap.NewWatcher(pap.WatcherConfig{
		Node:    d.home,
		PDP:     d.PDP,
		PRP:     d.PRP,
		OnEvent: d.onPolicyEvent,
	})
	if err != nil {
		return nil, err
	}
	d.watcher.Start()

	// Publish the initial policy — unless the chain (restored from DataDir
	// or synced from an existing federation) already carries an active
	// policy, in which case the watcher's Sync during Start has applied it
	// and re-publishing would downgrade the whole fleet.
	if hostsInfra && activePolicyVersion(d.home) == "" {
		if err := d.PublishPolicy(cfg.Policy); err != nil {
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

// onPolicyEvent runs on the watcher goroutine for every policy lifecycle
// transition of this deployment.
func (d *Deployment) onPolicyEvent(ev pap.Event) {
	if ev.Kind == pap.EventActivated && d.Analyser != nil {
		// The watcher mirrors activated versions into the PRP before
		// notifying, so the authoritative copy is always available here.
		if ps, err := d.PRP.Version(ev.Version); err == nil {
			d.Analyser.LoadPolicy(ps)
			// Best-effort: the analyser's node may still be syncing; the
			// anchor check re-runs on chain state.
			_ = d.Analyser.VerifyPolicyAnchor()
		}
	}
	if d.Monitor != nil {
		if alert, ok := pap.MonitorEvent(ev); ok {
			d.Monitor.PublishPolicyEvent(alert)
		}
	}
	if fn := d.policyHook.Load(); fn != nil {
		(*fn)(ev)
	}
}

// OnPolicyEvent registers fn, replacing any earlier handler, to run on the
// watcher goroutine for every policy lifecycle transition from now on (keep
// it non-blocking). Transitions applied while the deployment was opening are
// not replayed; PolicyStats reports where they left it.
func (d *Deployment) OnPolicyEvent(fn func(PolicyEvent)) { d.policyHook.Store(&fn) }

// PublishPolicy publishes a policy set as a new on-chain version activated
// immediately: the PAP signs a PolicyUpdate transaction carrying the full
// serialized set, the policy contract anchors and schedules it, and the
// call returns once this deployment's watcher has hot-reloaded the PDP
// (decision cache purged) and analyser. It is a convenience wrapper over
// Admin.UpdatePolicy for the "new version, right now" case.
func (d *Deployment) PublishPolicy(ps *xacml.PolicySet) error {
	if ps == nil || ps.Version == "" {
		return errors.New("drams: policy set with a version is required")
	}
	if d.PRP == nil {
		return errors.New("drams: this member does not host the infrastructure tenant; publish through Admin")
	}
	if _, err := d.PRP.Version(ps.Version); err == nil {
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
	pep, ok := d.PEPs[tenant]
	if !ok {
		return fmt.Errorf("drams: tenant %q has no PEP", tenant)
	}
	pep.SetTamper(t)
	return nil
}

// CompromisePDP swaps the PDP's evaluator through a wrapper — the attack
// framework uses this to model altered evaluation processes. Passing nil
// restores the honest PDP. On a member that does not host the PDP the call
// is a no-op: aim an attack campaign at the infrastructure slice.
func (d *Deployment) CompromisePDP(wrap func(xacml.Evaluator) xacml.Evaluator) {
	if d.PDPService == nil {
		return
	}
	if wrap == nil {
		d.PDPService.SetEvaluator(d.PDP)
		return
	}
	d.PDPService.SetEvaluator(wrap(d.PDP))
}

// WaitForAlert blocks until the monitor sees the given alert for reqID. It
// is a shim over a one-shot Alerts subscription.
func (d *Deployment) WaitForAlert(ctx context.Context, reqID string, t AlertType) (Alert, error) {
	if d.Monitor == nil {
		return Alert{}, ErrMonitoringDisabled
	}
	return d.Monitor.WaitForAlert(ctx, reqID, t)
}

// WaitForMatched blocks until the exchange for reqID completed cleanly
// on-chain. It is a shim over a one-shot Alerts subscription.
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
	return d.Nodes[infra.Cloud]
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
	for _, node := range d.Nodes {
		node.Stop()
	}
	for _, kv := range d.stores {
		kv.Close()
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
