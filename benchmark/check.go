package main

import (
	"fmt"

	"drams/internal/xacml"
)

// reference is the benchmark's own view of what the right decision is: one
// uncached PDP per policy version the run publishes, independent of the
// fleet's PDP, its decision cache and its hot swaps.
type reference map[string]*xacml.PDP

func newReference(p *plan) reference {
	ref := reference{p.policy.Version: xacml.NewPDP(p.policy)}
	for _, f := range p.flips {
		ref[f.policy.Version] = xacml.NewPDP(f.policy)
	}
	return ref
}

// verify returns "" when the enforced decision is the one the reference PDP
// reaches under the policy version the enforcement reports.
func (ref reference) verify(req *xacml.Request, version string, got xacml.Decision) string {
	pdp, ok := ref[version]
	if !ok {
		return fmt.Sprintf("decided under unknown policy version %q", version)
	}
	want, err := pdp.Evaluate(req)
	if err != nil {
		return fmt.Sprintf("reference PDP: %v", err)
	}
	if want.Decision != got {
		return fmt.Sprintf("enforced %s, reference says %s under %s", got, want.Decision, version)
	}
	return ""
}

// checkExchange returns "" for an exchange that went as the monitor
// promises — alert if and only if tampered — and why not otherwise.
func checkExchange(ex *exchange, ref reference) string {
	if ex.err != nil {
		return fmt.Sprintf("decide: %v", ex.err)
	}
	// The PDP saw the wire request, so a rewritten exchange is judged on
	// its rewritten content.
	wire := ex.req
	if ex.tamperOp != "" {
		wire = rewrite(ex.req.Clone(), ex.tamperOp)
	}
	if why := ref.verify(wire, ex.enf.PolicyVersion, ex.enf.Decision); why != "" {
		return why
	}
	want := evMatched
	if ex.tamperOp != "" {
		want = evRequestTampered
	}
	seen := false
	for _, ev := range ex.events {
		if ev.typ != want {
			return fmt.Sprintf("raised %s, expected only %s", ev.typ, want)
		}
		seen = true
	}
	if !seen {
		return fmt.Sprintf("no %s event within %s", want, settleTimeout)
	}
	if took := ex.settled.Sub(ex.dueAt); took > settleTimeout {
		return fmt.Sprintf("%s after %s, limit %s", want, took, settleTimeout)
	}
	return ""
}

// checkRun counts every exchange (and sampled acplane decision) that went
// wrong into the outcome.
func checkRun(p *plan, out *outcome) {
	ref := newReference(p)
	for _, ex := range p.exchanges {
		if why := checkExchange(ex, ref); why != "" {
			out.fail("%s: %s", ex.id, why)
		}
	}
	for _, s := range p.acKept {
		if why := ref.verify(s.req, s.enf.PolicyVersion, s.enf.Decision); why != "" {
			out.fail("%s: %s", s.req.ID, why)
		}
	}
}
