package drams

import (
	"context"
	"errors"
	"fmt"

	"drams/internal/blockchain"
	"drams/internal/federation"
	"drams/internal/xacml"
)

// ErrMonitoringDisabled is returned by monitoring-plane methods when the
// deployment was built with monitoring off.
var ErrMonitoringDisabled = errors.New("drams: monitoring is disabled")

// Client is a per-tenant handle onto a deployment — the application-facing
// entry point for access requests. A Client is cheap, stateless and safe
// for concurrent use; obtain one per tenant with Deployment.Client and
// reuse it for the tenant's whole traffic.
type Client struct {
	dep    *Deployment
	tenant string
	pep    *federation.PEPService
}

// Client returns the access-request handle for a tenant's PEP.
func (d *Deployment) Client(tenant string) (*Client, error) {
	pep, err := d.PEP(tenant)
	if err != nil {
		return nil, err
	}
	return &Client{dep: d, tenant: tenant, pep: pep}, nil
}

// Tenant returns the tenant this client submits requests for.
func (c *Client) Tenant() string { return c.tenant }

// NewRequest builds an empty request with a fresh correlation ID.
func (c *Client) NewRequest() *xacml.Request { return c.dep.NewRequest() }

// Decide runs one access request through the tenant's PEP and returns the
// enforced outcome. The context's deadline and cancellation propagate into
// the PEP service and the federation network round-trip to the PDP.
func (c *Client) Decide(ctx context.Context, req *xacml.Request) (Enforcement, error) {
	c.dep.prepare(req)
	return c.pep.Decide(ctx, req)
}

// DecideBatch pipelines many access requests over the tenant's PEP: all of
// them share one network round-trip to the PDP, while probes, attack
// injection and on-chain logging behave per-request exactly as Decide.
//
// The returned slice is positionally aligned with reqs; entries whose
// request failed carry IndeterminateDP. The error is nil only when every
// request succeeded (per-item errors are joined, so errors.Is still works).
func (c *Client) DecideBatch(ctx context.Context, reqs []*xacml.Request) ([]Enforcement, error) {
	for _, req := range reqs {
		c.dep.prepare(req)
	}
	return c.pep.DecideBatch(ctx, reqs)
}

// DecideAsync starts Decide in the background and returns a Future. The
// request's correlation ID is minted synchronously, so callers can
// subscribe to its alerts before the decision lands.
func (c *Client) DecideAsync(ctx context.Context, req *xacml.Request) *Future {
	c.dep.prepare(req)
	f := &Future{reqID: req.ID, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.enf, f.err = c.pep.Decide(ctx, req)
	}()
	return f
}

// Future is the pending outcome of a DecideAsync call.
type Future struct {
	reqID string
	done  chan struct{}
	enf   Enforcement // written once before done is closed
	err   error
}

// RequestID returns the correlation ID of the in-flight request, usable to
// subscribe for its alerts or wait for its on-chain match.
func (f *Future) RequestID() string { return f.reqID }

// Done is closed when the outcome is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks for the outcome or the context, whichever first. Wait may be
// called any number of times, from any goroutine.
func (f *Future) Wait(ctx context.Context) (Enforcement, error) {
	select {
	case <-f.done:
		return f.enf, f.err
	case <-ctx.Done():
		return Enforcement{Decision: xacml.IndeterminateDP},
			fmt.Errorf("drams: async decide %s: %w", f.reqID, ctx.Err())
	}
}

// prepare mints a correlation ID if the request has none.
func (d *Deployment) prepare(req *xacml.Request) {
	if req.ID == "" {
		req.ID = d.NewRequestID()
	}
}

// PEP returns the tenant-edge enforcement point service for a tenant.
func (d *Deployment) PEP(tenant string) (*federation.PEPService, error) {
	pep, ok := d.peps[tenant]
	if !ok {
		return nil, fmt.Errorf("drams: tenant %q has no PEP", tenant)
	}
	return pep, nil
}

// Node returns the blockchain node of a cloud this process hosts.
func (d *Deployment) Node(cloud string) (*blockchain.Node, error) {
	node, ok := d.nodes[cloud]
	if !ok {
		return nil, fmt.Errorf("drams: cloud %q has no chain node", cloud)
	}
	return node, nil
}

// Alerts subscribes to the monitor's event stream. The channel carries
// security alerts matching the filter — plus synthetic AlertMatched events
// for cleanly completed exchanges when the filter lists that type
// explicitly — and is closed on cancel, context end, or deployment
// shutdown. Buffers are bounded; a slow consumer loses events (counted in
// Monitor.Stats), never the on-chain record.
func (d *Deployment) Alerts(ctx context.Context, f AlertFilter) (<-chan Alert, func(), error) {
	if d.Monitor == nil {
		return nil, nil, ErrMonitoringDisabled
	}
	ch, cancel := d.Monitor.Subscribe(ctx, f)
	return ch, cancel, nil
}
