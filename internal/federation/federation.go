// Package federation models the FaaS cloud-federation substrate of the
// paper (Figure 1): clouds contributing sections of computing resources,
// tenants deployed on them, the infrastructure tenant owned by all
// federation members (hosting the PDP and policy management), and
// tenant-edge PEPs intercepting all communications.
//
// The package provides the access-control data plane — PEPService at each
// tenant edge and PDPService in the infrastructure tenant, talking over the
// simulated federation network — with explicit probe hook points (where
// DRAMS agents attach) and tamper hook points (where the attack-injection
// framework models compromised components).
package federation

import (
	"errors"
	"fmt"
	"sort"

	"drams/internal/crypto"
)

// Cloud is one federation member platform.
type Cloud struct {
	Name string `json:"name"`
	// Section is the set of computing resources the cloud contributes
	// ("Section i" in Figure 1).
	Section string `json:"section"`
}

// Tenant is a virtual space of computing resources on a cloud.
type Tenant struct {
	Name  string `json:"name"`
	Cloud string `json:"cloud"`
	// Infrastructure marks the tenant owned by all federation clouds that
	// enables the FaaS functionality (hosts the PDP).
	Infrastructure bool `json:"infrastructure"`
}

// Topology is the static description of a federation.
type Topology struct {
	Name    string   `json:"name"`
	Clouds  []Cloud  `json:"clouds"`
	Tenants []Tenant `json:"tenants"`
}

// Validation errors.
var (
	ErrNoInfrastructure = errors.New("federation: topology needs exactly one infrastructure tenant")
	ErrUnknownCloud     = errors.New("federation: tenant references unknown cloud")
	ErrDuplicateName    = errors.New("federation: duplicate name")
	ErrNoEdgeTenants    = errors.New("federation: topology needs at least one edge tenant")
)

// Validate checks structural invariants of the topology.
func (t *Topology) Validate() error {
	clouds := make(map[string]bool, len(t.Clouds))
	for _, c := range t.Clouds {
		if clouds[c.Name] {
			return fmt.Errorf("%w: cloud %q", ErrDuplicateName, c.Name)
		}
		clouds[c.Name] = true
	}
	names := make(map[string]bool, len(t.Tenants))
	infra := 0
	edges := 0
	for _, ten := range t.Tenants {
		if names[ten.Name] {
			return fmt.Errorf("%w: tenant %q", ErrDuplicateName, ten.Name)
		}
		names[ten.Name] = true
		if !clouds[ten.Cloud] {
			return fmt.Errorf("%w: tenant %q on cloud %q", ErrUnknownCloud, ten.Name, ten.Cloud)
		}
		if ten.Infrastructure {
			infra++
		} else {
			edges++
		}
	}
	if infra != 1 {
		return fmt.Errorf("%w: found %d", ErrNoInfrastructure, infra)
	}
	if edges == 0 {
		return ErrNoEdgeTenants
	}
	return nil
}

// InfrastructureTenant returns the infrastructure tenant.
func (t *Topology) InfrastructureTenant() (Tenant, error) {
	for _, ten := range t.Tenants {
		if ten.Infrastructure {
			return ten, nil
		}
	}
	return Tenant{}, ErrNoInfrastructure
}

// Tenant returns the named tenant.
func (t *Topology) Tenant(name string) (Tenant, bool) {
	for _, ten := range t.Tenants {
		if ten.Name == name {
			return ten, true
		}
	}
	return Tenant{}, false
}

// EdgeTenants returns the non-infrastructure tenants, sorted by name.
func (t *Topology) EdgeTenants() []Tenant {
	var out []Tenant
	for _, ten := range t.Tenants {
		if !ten.Infrastructure {
			out = append(out, ten)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TenantsOnCloud returns the tenants hosted by a cloud, sorted by name.
//
//lint:ignore deadcode examples/federation prints each cloud's tenants: the multi-cloud federation of paper §I
func (t *Topology) TenantsOnCloud(cloud string) []Tenant {
	var out []Tenant
	for _, ten := range t.Tenants {
		if ten.Cloud == cloud {
			out = append(out, ten)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SimpleTopology builds a federation of n clouds, one edge tenant per
// cloud, plus the infrastructure tenant on the first cloud — the Figure 1
// shape generalised to n members.
func SimpleTopology(name string, nClouds int) *Topology {
	t := &Topology{Name: name}
	for i := 1; i <= nClouds; i++ {
		cloud := fmt.Sprintf("cloud-%d", i)
		t.Clouds = append(t.Clouds, Cloud{Name: cloud, Section: fmt.Sprintf("section-%d", i)})
		t.Tenants = append(t.Tenants, Tenant{Name: fmt.Sprintf("tenant-%d", i), Cloud: cloud})
	}
	t.Tenants = append(t.Tenants, Tenant{Name: "infrastructure", Cloud: "cloud-1", Infrastructure: true})
	return t
}

// PEPAddr returns the network address of a tenant's PEP.
func PEPAddr(tenant string) string { return "pep@" + tenant }

// PDPAddr is the network address of the federation PDP service.
const PDPAddr = "pdp@infrastructure"

// IdentitySeed derives the deterministic per-component identity seed every
// federation participant computes from the shared deployment seed, so that
// single-process deployments (drams.Open) and multi-process members
// (drams.OpenMember, as cmd/drams-node runs it) agree on the chain allowlist byte-for-byte.
func IdentitySeed(seed uint64, name string) [32]byte {
	d := crypto.SumAll([]byte(fmt.Sprintf("drams-id|%d|", seed)), []byte(name))
	return [32]byte(d)
}

// SharedKey derives the federation's shared symmetric LI key K from the
// deployment seed (paper §II; sealed in a TPM under the §III mitigation).
func SharedKey(seed uint64) crypto.Key {
	return crypto.DeriveKey(fmt.Sprintf("drams-K-%d", seed), "shared-li-key")
}
