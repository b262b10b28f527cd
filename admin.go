package drams

import (
	"context"
	"fmt"

	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/pap"
	"drams/internal/xacml"
)

// UpdateOptions shape a policy update or rollback (see pap.UpdateOptions).
type UpdateOptions = pap.UpdateOptions

// PolicyActivation is one entry of the on-chain activation history.
type PolicyActivation = core.PolicyActivation

// PolicyEvent is one activated/rejected transition of the local
// policy lifecycle (see Deployment.OnPolicyEvent).
type PolicyEvent = pap.Event

// Admin is the runtime policy administration handle of a deployment: it
// signs on-chain PolicyUpdate transactions with the federation's PAP
// identity and observes the local rollout. Obtain one per administering
// tenant with Deployment.Admin.
type Admin struct {
	dep    *Deployment
	tenant string
	inner  *pap.Admin
}

// Admin returns a policy administration handle publishing through the
// given tenant's cloud node — any federation member can administer; the
// update reaches the block producers by gossip and every member activates
// it at the same chain height.
func (d *Deployment) Admin(tenant string) (*Admin, error) {
	ten, ok := d.topology.Tenant(tenant)
	if !ok {
		return nil, fmt.Errorf("drams: unknown tenant %q", tenant)
	}
	node, ok := d.nodes[ten.Cloud]
	if !ok {
		return nil, fmt.Errorf("drams: tenant %q's cloud %q has no chain node", tenant, ten.Cloud)
	}
	return &Admin{dep: d, tenant: tenant, inner: pap.NewAdmin(node, d.papID)}, nil
}

// Tenant returns the tenant this admin publishes through.
func (a *Admin) Tenant() string { return a.tenant }

// UpdatePolicy signs and submits ps as a new on-chain policy version and
// blocks until this deployment has activated it (every other member flips
// at the same chain height). Options tune the activation gate: a non-zero
// ActivateDelta publishes now but flips the fleet that many blocks later.
func (a *Admin) UpdatePolicy(ctx context.Context, ps *xacml.PolicySet, opts UpdateOptions) error {
	prop, err := a.inner.UpdatePolicy(ctx, ps, opts)
	if err != nil {
		return err
	}
	return a.dep.watcher.WaitForVersion(ctx, prop.Version)
}

// Rollback re-activates an already-anchored version and blocks until this
// deployment has flipped back to it.
func (a *Admin) Rollback(ctx context.Context, version string, opts UpdateOptions) error {
	if _, err := a.inner.Rollback(ctx, version, opts); err != nil {
		return err
	}
	return a.dep.watcher.WaitForVersion(ctx, version)
}

// PolicyVersion returns the active on-chain policy version ("" before the
// first activation).
func (a *Admin) PolicyVersion() string {
	version, _, _ := a.inner.ActivePolicy()
	return version
}

// PolicyDigest returns the anchored digest of a version.
func (a *Admin) PolicyDigest(version string) (crypto.Digest, bool) {
	return a.inner.PolicyDigest(version)
}

// PolicySet fetches and parses the chain-stored policy of a version.
func (a *Admin) PolicySet(version string) (*xacml.PolicySet, error) {
	return a.inner.PolicySet(version)
}

// History returns the on-chain activation history, oldest first.
func (a *Admin) History() []PolicyActivation { return a.inner.History() }

// PolicyStats are the deployment-level PAP/PDP reload counters.
type PolicyStats struct {
	// Version / Height identify the last locally activated policy.
	Version string
	Height  uint64
	// Activations / Rejections count watcher transitions.
	Activations int64
	Rejections  int64
}

// PolicyStats snapshots the deployment's policy lifecycle counters, the
// PAP-side complement of Node.Stats.
func (d *Deployment) PolicyStats() PolicyStats {
	st := d.watcher.Stats()
	return PolicyStats{
		Version:     st.Version,
		Height:      st.Height,
		Activations: st.Activations,
		Rejections:  st.Rejections,
	}
}
