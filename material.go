package drams

import (
	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/federation"
)

// ChainParams are the consensus-critical knobs every process of a
// federation must agree on: they feed the smart-contract configuration and
// the chain validation rules, so two processes with different values
// compute different state digests from the same transactions.
type ChainParams struct {
	// Difficulty is the PoW difficulty in leading-zero bits (default 8).
	Difficulty uint8
	// TimeoutBlocks is the log-match M3 window Δ (default 5 blocks).
	TimeoutBlocks uint64
	// RequireVerdict demands an analyser verdict per request.
	RequireVerdict bool
}

func (p ChainParams) withDefaults() ChainParams {
	if p.Difficulty == 0 {
		p.Difficulty = 8
	}
	if p.TimeoutBlocks == 0 {
		p.TimeoutBlocks = 5
	}
	return p
}

// ChainMaterial is everything a federation process derives from the shared
// seed + tenant list: component identities, the chain allowlist, the
// shared LI key, the contract registry and the chain configuration.
// Open/OpenMember and the loadgen TCP observer both build their chains from this,
// so processes given the same seed, tenant set and ChainParams can join the
// same federation.
type ChainMaterial struct {
	// Chain is the node configuration shared by every chain node.
	Chain blockchain.Config
	// LIIdentities holds each tenant's Logging Interface signer, keyed by
	// tenant name.
	LIIdentities map[string]*crypto.Identity
	// AnalyserID signs verdicts; PAPID signs policy-contract updates.
	AnalyserID, PAPID *crypto.Identity
	// Key is the federation's shared symmetric LI key K.
	Key crypto.Key
}

// NewChainMaterial deterministically derives the federation's consensus
// material. tenantNames must list every tenant (edge and infrastructure)
// in the federation; ordering does not matter.
func NewChainMaterial(seed uint64, tenantNames []string, p ChainParams) ChainMaterial {
	p = p.withDefaults()
	m := ChainMaterial{
		LIIdentities: make(map[string]*crypto.Identity, len(tenantNames)),
		Key:          federation.SharedKey(seed),
	}
	var allow []crypto.PublicIdentity
	for _, ten := range tenantNames {
		id := crypto.NewIdentityFromSeed("li@"+ten, federation.IdentitySeed(seed, "li@"+ten))
		m.LIIdentities[ten] = id
		allow = append(allow, id.Public())
	}
	m.AnalyserID = crypto.NewIdentityFromSeed("analyser", federation.IdentitySeed(seed, "analyser"))
	m.PAPID = crypto.NewIdentityFromSeed("pap", federation.IdentitySeed(seed, "pap"))
	allow = append(allow, m.AnalyserID.Public(), m.PAPID.Public())

	registry := contract.NewRegistry()
	registry.MustRegister(core.NewLogMatchContract(core.MatchConfig{
		TimeoutBlocks:  p.TimeoutBlocks,
		Analyser:       m.AnalyserID.Name(),
		RequireVerdict: p.RequireVerdict,
	}))
	registry.MustRegister(&core.PolicyContract{PAP: m.PAPID.Name()})

	m.Chain = blockchain.Config{
		Difficulty: p.Difficulty,
		Identities: allow,
		Registry:   registry,
	}
	return m
}
