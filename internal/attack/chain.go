package attack

import (
	"math"

	"drams/internal/blockchain"
	"drams/internal/core"
	"drams/internal/crypto"
)

// ForgeLogResult reports the outcome of an outsider forgery attempt (A8).
type ForgeLogResult struct {
	// Rejected is true when the chain refused the transaction — the
	// desired outcome.
	Rejected bool
	// Err is the rejection error.
	Err error
}

// AttemptLogForgery simulates attack A8: an outsider (an identity not on
// the federation allowlist) fabricates a log record and tries to submit it.
// The permissioned chain must reject it at the signature gate.
func AttemptLogForgery(node *blockchain.Node, reqID string) ForgeLogResult {
	outsider, err := crypto.NewIdentity("outsider")
	if err != nil {
		return ForgeLogResult{Rejected: false, Err: err}
	}
	rec := core.LogRecord{
		Kind:      core.KindPEPRequest,
		ReqID:     reqID,
		Tenant:    "tenant-1",
		Agent:     "forged-agent",
		ReqDigest: crypto.Sum([]byte("forged request")),
	}
	call, err := core.LogCall(rec)
	if err != nil {
		return ForgeLogResult{Rejected: false, Err: err}
	}
	tx, err := blockchain.NewTransaction(outsider, node.Chain().Height(), call)
	if err != nil {
		return ForgeLogResult{Rejected: false, Err: err}
	}
	if err := node.SubmitTx(tx); err != nil {
		return ForgeLogResult{Rejected: true, Err: err}
	}
	return ForgeLogResult{Rejected: false}
}

// RewriteProbability computes the probability that an attacker controlling
// fraction q of the federation hash power rewrites a log entry buried under
// z confirmations — Nakamoto's catch-up analysis [5], which the paper's
// §III Log Size discussion invokes when warning that "a possibly
// lightweight PoW ... does not ensure strong integrity guarantees".
func RewriteProbability(q float64, z int) float64 {
	if q >= 0.5 {
		return 1
	}
	if z <= 0 {
		return 1
	}
	p := 1 - q
	lambda := float64(z) * q / p
	sum := 1.0
	for k := 0; k <= z; k++ {
		poisson := math.Exp(-lambda)
		for i := 1; i <= k; i++ {
			poisson *= lambda / float64(i)
		}
		sum -= poisson * (1 - math.Pow(q/p, float64(z-k)))
	}
	if sum < 0 {
		return 0
	}
	return sum
}
