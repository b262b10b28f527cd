package core

import (
	"encoding/json"
	"fmt"
)

// AlertType classifies a detected integrity violation. Each maps to one of
// the matching checks M1–M6 (docs/ARCHITECTURE.md §2, *Alert types ↔
// matching checks*) and to a threat from the paper's §I threat model.
type AlertType string

// Alert types.
const (
	// AlertRequestTampered (M1): the request the PDP received differs
	// from the one the PEP sent.
	AlertRequestTampered AlertType = "request-tampered"
	// AlertResponseTampered (M2): the response the PEP received differs
	// from the one the PDP sent (content or decision).
	AlertResponseTampered AlertType = "response-tampered"
	// AlertMessageSuppressed (M3): a leg of the exchange never produced
	// its log within the timeout window.
	AlertMessageSuppressed AlertType = "message-suppressed"
	// AlertEnforcementMismatch (M4): the PEP enforced a different effect
	// than the decision it received.
	AlertEnforcementMismatch AlertType = "enforcement-mismatch"
	// AlertDecisionIncorrect (M5): the PDP's decision differs from the
	// Analyser's expected decision under the authoritative policy.
	AlertDecisionIncorrect AlertType = "decision-incorrect"
	// AlertPolicyTampered (M6): the PDP evaluated a policy whose digest
	// does not match the PAP-anchored digest for the active version.
	AlertPolicyTampered AlertType = "policy-tampered"
	// AlertVerdictMissing (M5 liveness): the Analyser produced no verdict
	// within the timeout window (only when verdicts are required).
	AlertVerdictMissing AlertType = "verdict-missing"
	// AlertEquivocation: one component logged two conflicting records for
	// the same interception point of the same request.
	AlertEquivocation AlertType = "equivocation"
)

// AlertMatched is a synthetic stream event type: it never appears on-chain
// and is emitted only on Monitor subscription channels when an exchange
// completes cleanly (the Matched contract event), to subscriptions that
// list it in AlertFilter.Types. It carries ReqID and Height but no Tenant.
// It is deliberately excluded from AllAlertTypes.
const AlertMatched AlertType = "matched"

// AllAlertTypes enumerates every alert the contract can raise.
func AllAlertTypes() []AlertType {
	return []AlertType{
		AlertRequestTampered, AlertResponseTampered, AlertMessageSuppressed,
		AlertEnforcementMismatch, AlertDecisionIncorrect, AlertPolicyTampered,
		AlertVerdictMissing, AlertEquivocation,
	}
}

// Alert is the payload of an on-chain security-alert event.
type Alert struct {
	Type   AlertType `json:"type"`
	ReqID  string    `json:"reqId"`
	Tenant string    `json:"tenant,omitempty"`
	// Detail is a human-readable explanation (no confidential content).
	Detail string `json:"detail"`
	// Height is the block height at which the mismatch became visible.
	Height uint64 `json:"height"`
}

// Encode serialises the alert.
func (a Alert) Encode() []byte {
	b, err := json.Marshal(a)
	if err != nil {
		panic(fmt.Sprintf("core: encode alert: %v", err))
	}
	return b
}

// DecodeAlert parses a JSON alert.
func DecodeAlert(data []byte) (Alert, error) {
	var a Alert
	if err := json.Unmarshal(data, &a); err != nil {
		return Alert{}, fmt.Errorf("core: decode alert: %w", err)
	}
	return a, nil
}

// String renders the alert for operator display.
func (a Alert) String() string {
	return fmt.Sprintf("[%s] req=%s tenant=%s height=%d: %s", a.Type, a.ReqID, a.Tenant, a.Height, a.Detail)
}
