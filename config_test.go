package drams_test

import (
	"encoding/json"
	"strings"
	"testing"

	"drams"
	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/federation"
	"drams/internal/xacml"
)

func TestNewRequiresPolicy(t *testing.T) {
	if _, err := drams.Open(nil); err == nil {
		t.Fatal("policyless deployment accepted")
	}
}

func TestNewRejectsInvalidTopology(t *testing.T) {
	bad := &federation.Topology{
		Name:    "bad",
		Clouds:  []federation.Cloud{{Name: "c"}},
		Tenants: []federation.Tenant{{Name: "t", Cloud: "c"}}, // no infrastructure
	}
	_, err := drams.Open(testPolicy("v1"), drams.WithTopology(bad))
	if err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestRequestUnknownTenant(t *testing.T) {
	dep := testDeployment(t)
	if _, err := dep.Client("ghost-tenant"); err == nil {
		t.Fatal("unknown tenant accepted")
	}
	if err := dep.TamperPEP("ghost-tenant", nil); err == nil {
		t.Fatal("tampering unknown tenant accepted")
	}
}

func TestRequestAssignsMissingID(t *testing.T) {
	dep := testDeployment(t)
	req := xacml.NewRequest("").
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	if _, err := tenantClient(t, dep, "tenant-1").Decide(ctx20(t), req); err != nil {
		t.Fatal(err)
	}
	if req.ID == "" {
		t.Fatal("request ID not assigned")
	}
}

func TestPublishDuplicateVersionFails(t *testing.T) {
	dep := testDeployment(t)
	if err := dep.PublishPolicy(testPolicy("v1")); err == nil ||
		!strings.Contains(err.Error(), "already published") {
		t.Fatalf("duplicate version: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	dep, err := drams.Open(testPolicy("v1"), drams.WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	dep.Close()
	dep.Close() // second close must be a no-op
}

func TestDeterministicIdentitiesAcrossDeployments(t *testing.T) {
	// Same seed → same component identities → a persisted chain from one
	// run validates in the next (restartability).
	d1 := testDeployment(t)
	d2, err := drams.Open(testPolicy("v1"), drams.WithDifficulty(6), drams.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	// The LIs' decision tags are keyed by the shared key K.
	tag := func(d *drams.Deployment) crypto.Digest { return d.LIs["tenant-1"].DecisionTag("r", xacml.Permit) }
	if tag(d1) != tag(d2) {
		t.Fatal("shared key differs across same-seed deployments")
	}
	// Every transaction on d1's chain verifies against d2's membership: the
	// same names carry the same keys.
	c1, v2 := d1.InfraNode().Chain(), d2.InfraNode().Chain().Verifier()
	checked := 0
	for h := uint64(1); h <= c1.Height(); h++ {
		b, ok := c1.BlockByHeight(h)
		if !ok {
			t.Fatalf("no block at height %d", h)
		}
		for i := range b.Txs {
			if err := v2.VerifyTx(&b.Txs[i]); err != nil {
				t.Fatalf("height %d tx %d: %v", h, i, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("d1's chain holds no transaction to check")
	}
}

func TestTopologyAccessor(t *testing.T) {
	dep := testDeployment(t)
	top := dep.Topology()
	if top == nil || len(top.EdgeTenants()) != 2 {
		t.Fatalf("topology = %+v", top)
	}
	if dep.InfraNode() == nil {
		t.Fatal("no infra node")
	}
}

// TestFleetRegistryHoldsNoGeneralContracts: every allowlisted identity — each
// tenant's LI, the analyser, the PAP — can sign a transaction, so a
// general-purpose kv or anchor contract in the federation's registry would
// let any of them write arbitrary rows into every member's state. The
// registry holds the log-match and policy contracts only: a kv.put or an
// anchor signed by an LI gets a failed receipt and leaves no row.
func TestFleetRegistryHoldsNoGeneralContracts(t *testing.T) {
	dep := testDeployment(t)
	var tenants []string
	for _, ten := range dep.Topology().Tenants {
		tenants = append(tenants, ten.Name)
	}
	li := drams.NewChainMaterial(42, tenants, drams.ChainParams{}).LIIdentities["tenant-1"]
	node := dep.InfraNode()
	sender := blockchain.NewSender(node, li)
	put, _ := json.Marshal(contract.KVArgs{Key: "planted", Value: []byte("evil")})
	anchor := json.RawMessage(`{"stream":"planted","seq":1,"count":1}`)
	for _, call := range []contract.Call{
		{Contract: "kv", Method: "put", Args: put},
		{Contract: "anchor", Method: "anchor", Args: anchor},
	} {
		rec, err := sender.SendAndWait(ctx20(t), call, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rec.OK || !strings.Contains(rec.Err, "unknown contract") {
			t.Fatalf("%s.%s signed by %s: ok=%v err=%q, want an unknown-contract failure",
				call.Contract, call.Method, li.Name(), rec.OK, rec.Err)
		}
	}
	node.Chain().ReadState("kv", func(st contract.StateDB) {
		if _, ok := contract.ReadKV(st, "planted"); ok {
			t.Error("an LI wrote a kv/ row into the federation's state")
		}
	})
}
