// Package core implements the DRAMS monitor itself — the paper's primary
// contribution. It defines:
//
//   - the log-record schema produced by the probing agents at the four
//     interception points of an access-control exchange (PEP sends request,
//     PDP receives request, PDP sends response, PEP enforces response), plus
//     the Analyser's expected-decision verdicts and the PAP's policy
//     publications;
//   - the on-chain log-match smart contract executing the "expressly
//     devised algorithms" (paper §II) — checks M1–M6 of DESIGN.md — and
//     emitting security-alert events;
//   - the off-chain Monitor that consumes those events, and the Analyser
//     runtime that re-derives expected decisions.
//
// Confidentiality: on-chain data is visible to every federation member
// (paper §II), so records never carry request/response content in the
// clear. Matching works on content digests and on keyed decision
// commitments (HMAC over the shared LI key K), while the full payload
// travels AES-GCM-encrypted for authorised forensics. Equality of
// commitments is exactly equality of decisions, so the contract can compare
// what it cannot read.
package core

import (
	"encoding/json"
	"fmt"

	"drams/internal/crypto"
	"drams/internal/xacml"
)

// LogKind labels the interception point that produced a record.
type LogKind string

// The four probe interception points plus the analyser verdict.
const (
	// KindPEPRequest: the tenant-edge agent saw the PEP send a request
	// towards the PDP.
	KindPEPRequest LogKind = "pep.request"
	// KindPDPRequest: the infrastructure-tenant agent saw the request
	// arrive at the PDP.
	KindPDPRequest LogKind = "pdp.request"
	// KindPDPResponse: the infrastructure-tenant agent saw the PDP send
	// its decision back.
	KindPDPResponse LogKind = "pdp.response"
	// KindPEPResponse: the tenant-edge agent saw the response arrive and
	// observed which effect the PEP actually enforced.
	KindPEPResponse LogKind = "pep.response"
)

// LogKinds lists the four probe kinds in pipeline order.
func LogKinds() []LogKind {
	return []LogKind{KindPEPRequest, KindPDPRequest, KindPDPResponse, KindPEPResponse}
}

// DecisionTag is a keyed commitment to a decision: HMAC_K(reqID || decision).
// Tags for the same request are equal iff the decisions are equal, and
// reveal nothing without K.
func DecisionTag(key crypto.Key, reqID string, d xacml.Decision) crypto.Digest {
	return crypto.HMAC(key, []byte(fmt.Sprintf("decision|%s|%d", reqID, d.Simple())))
}

// LogRecord is one monitoring observation. The fields used by on-chain
// matching (digests, tags) are public; Payload is the AES-GCM-encrypted
// full context.
type LogRecord struct {
	Kind   LogKind `json:"kind"`
	ReqID  string  `json:"reqId"`
	Tenant string  `json:"tenant"`
	// TraceID carries the end-to-end tracing identifier minted at the PEP
	// (observability metadata only — no contract check reads it; older
	// records decode with it empty).
	TraceID string `json:"trace,omitempty"`
	// Agent is the probing agent that produced the observation.
	Agent string `json:"agent"`
	// ReqDigest fingerprints the request content (M1).
	ReqDigest crypto.Digest `json:"reqDigest"`
	// RespDigest fingerprints the response content (M2); zero for request
	// records.
	RespDigest crypto.Digest `json:"respDigest,omitzero"`
	// DecisionTag commits to the decision carried by the response (M2,
	// M5); zero for request records.
	DecisionTag crypto.Digest `json:"decisionTag,omitzero"`
	// EnforcedTag commits to the effect the PEP actually enforced (M4);
	// only on pep.response records.
	EnforcedTag crypto.Digest `json:"enforcedTag,omitzero"`
	// PolicyVersion/PolicyDigest identify the policy the PDP claims to
	// have evaluated (M6); only on pdp.response records.
	PolicyVersion string        `json:"policyVersion,omitempty"`
	PolicyDigest  crypto.Digest `json:"policyDigest,omitzero"`
	// TimestampUnixNano is the agent-local observation time (diagnostic
	// only; consensus ordering comes from block heights).
	TimestampUnixNano int64 `json:"ts"`
	// Payload is the encrypted full context (request and, for response
	// records, the result).
	Payload []byte `json:"payload,omitempty"`
}

// Encode serialises the record as JSON.
func (lr LogRecord) Encode() []byte {
	b, err := json.Marshal(lr)
	if err != nil {
		panic(fmt.Sprintf("core: encode log record: %v", err))
	}
	return b
}

// DecodeLogRecord parses a JSON record.
func DecodeLogRecord(data []byte) (LogRecord, error) {
	var lr LogRecord
	if err := json.Unmarshal(data, &lr); err != nil {
		return LogRecord{}, fmt.Errorf("core: decode log record: %w", err)
	}
	return lr, nil
}

// Validate checks structural well-formedness per kind.
func (lr LogRecord) Validate() error {
	if lr.ReqID == "" {
		return fmt.Errorf("core: log record without request id")
	}
	switch lr.Kind {
	case KindPEPRequest, KindPDPRequest:
		if lr.ReqDigest.IsZero() {
			return fmt.Errorf("core: %s record without request digest", lr.Kind)
		}
	case KindPDPResponse:
		if lr.RespDigest.IsZero() || lr.DecisionTag.IsZero() {
			return fmt.Errorf("core: %s record missing response digest or decision tag", lr.Kind)
		}
		if lr.PolicyDigest.IsZero() {
			return fmt.Errorf("core: %s record missing policy digest", lr.Kind)
		}
	case KindPEPResponse:
		if lr.RespDigest.IsZero() || lr.DecisionTag.IsZero() || lr.EnforcedTag.IsZero() {
			return fmt.Errorf("core: %s record missing response digest or tags", lr.Kind)
		}
	default:
		return fmt.Errorf("core: unknown log kind %q", lr.Kind)
	}
	return nil
}

// Verdict is the Analyser's expected-decision statement for one request
// (check M5). ExpectedTag commits to the expected decision with the same
// keyed construction the agents use, so the contract compares tags.
type Verdict struct {
	ReqID string `json:"reqId"`
	// ExpectedTag is DecisionTag(K, reqID, expectedDecision).
	ExpectedTag crypto.Digest `json:"expectedTag"`
	// PolicyDigest is the digest of the policy version the analyser used.
	PolicyDigest crypto.Digest `json:"policyDigest"`
	// Analyser names the producing component.
	Analyser string `json:"analyser"`
}

// Encode serialises the verdict.
func (v Verdict) Encode() []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: encode verdict: %v", err))
	}
	return b
}

// DecodeVerdict parses a JSON verdict.
func DecodeVerdict(data []byte) (Verdict, error) {
	var v Verdict
	if err := json.Unmarshal(data, &v); err != nil {
		return Verdict{}, fmt.Errorf("core: decode verdict: %w", err)
	}
	return v, nil
}

// EncryptedContext is the plaintext structure sealed into
// LogRecord.Payload: the full exchange context for authorised forensics.
type EncryptedContext struct {
	Request  *xacml.Request `json:"request,omitempty"`
	Result   *xacml.Result  `json:"result,omitempty"`
	Enforced xacml.Decision `json:"enforced,omitempty"`
	Note     string         `json:"note,omitempty"`
}

// Seal encrypts the context with the LI key.
func (ec EncryptedContext) Seal(cipher *crypto.Cipher, reqID string) ([]byte, error) {
	plain, err := json.Marshal(ec)
	if err != nil {
		return nil, fmt.Errorf("core: seal context: %w", err)
	}
	return cipher.Encrypt(plain, []byte(reqID))
}

// OpenContext decrypts a sealed context.
func OpenContext(cipher *crypto.Cipher, reqID string, payload []byte) (EncryptedContext, error) {
	plain, err := cipher.Decrypt(payload, []byte(reqID))
	if err != nil {
		return EncryptedContext{}, fmt.Errorf("core: open context: %w", err)
	}
	var ec EncryptedContext
	if err := json.Unmarshal(plain, &ec); err != nil {
		return EncryptedContext{}, fmt.Errorf("core: open context: %w", err)
	}
	return ec, nil
}
