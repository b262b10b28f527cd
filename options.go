package drams

import (
	"errors"
	"time"

	"drams/internal/federation"
	"drams/internal/transport"
	"drams/internal/xacml"
)

// Option adjusts the deployment Open or OpenMember builds. Options are
// applied in order, so later options win.
type Option func(*config)

// Open assembles and starts a deployment from a policy plus functional
// options:
//
//	dep, err := drams.Open(policy,
//	    drams.WithTopology(federation.SimpleTopology("faas", 3)),
//	    drams.WithSeed(42),
//	)
func Open(policy *xacml.PolicySet, opts ...Option) (*Deployment, error) {
	return open(policy, "", opts)
}

// OpenMember assembles and starts one federation member: the slice of the
// topology hosted on the given cloud — its chain node, and for each tenant
// on it a PEP, a probing agent and a Logging Interface, plus PDP, analyser
// and monitor where the infrastructure tenant lives. It is Open
// restricted to one cloud, so a fleet of OpenMember processes sharing a
// topology, a seed and a transport each can reach (WithTransport) is the
// same federation as one Open. policy is needed only on the cloud that hosts
// the infrastructure tenant.
func OpenMember(policy *xacml.PolicySet, cloud string, opts ...Option) (*Deployment, error) {
	if cloud == "" {
		return nil, errors.New("drams: OpenMember needs the cloud this process hosts")
	}
	return open(policy, cloud, opts)
}

// WithTopology sets the federation topology.
func WithTopology(t *federation.Topology) Option {
	return func(c *config) { c.topology = t }
}

// WithSeed makes network behaviour and identities reproducible. Request IDs
// are random whatever the seed.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithDifficulty sets the PoW difficulty in leading-zero bits.
func WithDifficulty(bits uint8) Option {
	return func(c *config) { c.difficulty = bits }
}

// WithTimeoutBlocks sets the log-match M3 window Δ in blocks.
func WithTimeoutBlocks(n uint64) Option {
	return func(c *config) { c.timeoutBlocks = n }
}

// WithEmptyBlockInterval keeps blocks flowing when idle.
func WithEmptyBlockInterval(d time.Duration) Option {
	return func(c *config) { c.emptyBlockInterval = d }
}

// WithMonitoring enables or disables the whole monitoring plane (probes,
// analyser, monitor). Disabled is the baseline for overhead experiments.
func WithMonitoring(enabled bool) Option {
	return func(c *config) { c.monitorOff = !enabled }
}

// WithNetwork shapes the simulated federation network.
func WithNetwork(latency, jitter time.Duration) Option {
	return func(c *config) {
		c.netLatency = latency
		c.netJitter = jitter
	}
}

// WithTransport runs the deployment on the given wire backend instead of
// the default in-process simulator — e.g. a transport/tcp instance so other
// processes can join the federation. The caller keeps ownership: Close does
// not shut a supplied transport down.
func WithTransport(t transport.Transport) Option {
	return func(c *config) { c.transport = t }
}

// WithDataDir makes every chain node durable: persisted chains under dir
// are re-validated and resumed on Open (instead of a fresh genesis), every
// accepted block is written incrementally from then on, and the policy
// watcher reconciles with the restored on-chain policy state.
func WithDataDir(dir string) Option {
	return func(c *config) { c.dataDir = dir }
}

// WithMineAll makes every cloud's node mine (more realistic, more forks)
// instead of the designated-producer default.
func WithMineAll() Option {
	return func(c *config) { c.mineAll = true }
}
