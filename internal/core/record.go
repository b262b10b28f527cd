// Package core implements the DRAMS monitor itself — the paper's primary
// contribution. It defines:
//
//   - the log-record schema produced by the probing agents at the four
//     interception points of an access-control exchange (PEP sends request,
//     PDP receives request, PDP sends response, PEP enforces response), plus
//     the Analyser's expected-decision verdicts and the PAP's policy
//     publications;
//   - the on-chain log-match smart contract executing the "expressly
//     devised algorithms" (paper §II) — checks M1–M6, docs/ARCHITECTURE.md
//     §2 *Alert types ↔ matching checks* — and emitting security-alert
//     events;
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
	"encoding/binary"
	"fmt"
	"strconv"

	"drams/internal/crypto"
	"drams/internal/wire"
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

// kindOfCode maps a record's leading byte to its kind: 1–4 in pipeline
// order, so kindOfCode[1:] lists the four probe kinds in that order.
var kindOfCode = [...]LogKind{1: KindPEPRequest, 2: KindPDPRequest, 3: KindPDPResponse, 4: KindPEPResponse}

// code is the kind's leading byte in a record encoding, or 0, which no
// decoder accepts, for an unknown kind.
func (k LogKind) code() byte {
	for c, kind := range kindOfCode {
		if c > 0 && kind == k {
			return byte(c)
		}
	}
	return 0
}

// response reports whether records of kind k carry the response digests.
func (k LogKind) response() bool { return k == KindPDPResponse || k == KindPEPResponse }

// DecisionTag is a keyed commitment to a decision:
// HMAC_K("decision|" || reqID || "|" || decimal code of the decision's simple
// form). Tags for the same request are equal iff the decisions are equal,
// and reveal nothing without K. The message is built on the stack and key is
// prepared once by its holder, so a tag allocates nothing.
func DecisionTag(key *crypto.MACKey, reqID string, d xacml.Decision) crypto.Digest {
	var buf [96]byte
	msg := append(buf[:0], "decision|"...)
	msg = append(msg, reqID...)
	msg = append(msg, '|')
	msg = strconv.AppendUint(msg, uint64(d.Simple()), 10)
	return key.Sum(msg)
}

// LogRecord is one monitoring observation. The fields used by on-chain
// matching (digests, tags) are public; Payload is the AES-GCM-encrypted
// full context.
type LogRecord struct {
	Kind  LogKind
	ReqID string
	// TraceID carries the end-to-end tracing identifier minted at the PEP
	// (observability metadata only — no contract check reads it).
	TraceID string
	// Tenant is the tenant whose agent made the observation.
	Tenant string
	// Origin is the tenant whose PEP sent the request: the agent's own
	// tenant at an edge, the calling PEP's tenant at the PDP. M3 names it,
	// whichever side's records reached the chain.
	Origin string
	// Agent is the probing agent that produced the observation.
	Agent string
	// ReqDigest fingerprints the request content (M1).
	ReqDigest crypto.Digest
	// RespDigest fingerprints the response content (M2); response records
	// only.
	RespDigest crypto.Digest
	// DecisionTag commits to the decision carried by the response (M2,
	// M5); response records only.
	DecisionTag crypto.Digest
	// EnforcedTag commits to the effect the PEP actually enforced (M4);
	// pep.response records only.
	EnforcedTag crypto.Digest
	// PolicyVersion/PolicyDigest identify the policy the PDP claims to
	// have evaluated (M6); pdp.response records only.
	PolicyVersion string
	PolicyDigest  crypto.Digest
	// TimestampUnixNano is the agent-local observation time. Consensus
	// never reads it (ordering comes from block heights); the monitor times
	// exchanges from it, trusting the agents' clocks.
	TimestampUnixNano int64
	// Payload is the encrypted full context (request and, for response
	// records, the result).
	Payload []byte
}

// Record encoding, the one form a record has on the chain: a blob of a
// logbatch, the Merkle leaf, the input of the row hash and the payload of its
// LogStored event (str = uvarint length + bytes, blob likewise, i64 = 8 bytes
// big-endian):
//
//	u8 kind | str reqID | str traceID | str tenant | str origin | str agent |
//	digests | str policyVersion | i64 ts | blob payload
//
// kind is 1–4 in pipeline order and fixes which 32-byte digests follow, so no
// zero digest travels:
//
//	pep.request, pdp.request   reqDigest
//	pdp.response               reqDigest | respDigest | decisionTag | policyDigest
//	pep.response               reqDigest | respDigest | decisionTag | enforcedTag
//
// Kind, reqID and traceID lead, where a consumer reads them without decoding
// the rest; recordHeader also skips to the timestamp. The decoder is
// canonical (internal/wire) and refuses an unknown kind, so equal bytes are
// exactly equal records and the contract hashes the bytes it was given.

// minRecordLen is the size of the smallest record: a request kind with every
// string and the payload empty.
const minRecordLen = 1 + 5 + crypto.DigestSize + 1 + 8 + 1

// encodedLen is the size of the record's encoding.
func (lr *LogRecord) encodedLen() int {
	n := 1 + crypto.DigestSize + 8 + wire.StrLen(len(lr.Payload))
	for _, s := range [...]string{lr.ReqID, lr.TraceID, lr.Tenant, lr.Origin, lr.Agent, lr.PolicyVersion} {
		n += wire.StrLen(len(s))
	}
	if lr.Kind.response() {
		n += 3 * crypto.DigestSize
	}
	return n
}

// appendTo appends the record's encoding to buf.
func (lr *LogRecord) appendTo(buf []byte) []byte {
	buf = append(buf, lr.Kind.code())
	buf = wire.AppendStr(buf, lr.ReqID)
	buf = wire.AppendStr(buf, lr.TraceID)
	buf = wire.AppendStr(buf, lr.Tenant)
	buf = wire.AppendStr(buf, lr.Origin)
	buf = wire.AppendStr(buf, lr.Agent)
	buf = append(buf, lr.ReqDigest[:]...)
	switch lr.Kind {
	case KindPDPResponse:
		buf = append(buf, lr.RespDigest[:]...)
		buf = append(buf, lr.DecisionTag[:]...)
		buf = append(buf, lr.PolicyDigest[:]...)
	case KindPEPResponse:
		buf = append(buf, lr.RespDigest[:]...)
		buf = append(buf, lr.DecisionTag[:]...)
		buf = append(buf, lr.EnforcedTag[:]...)
	}
	buf = wire.AppendStr(buf, lr.PolicyVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(lr.TimestampUnixNano))
	return wire.AppendBlob(buf, lr.Payload)
}

// Encode serialises the record in the record encoding.
func (lr LogRecord) Encode() []byte { return lr.appendTo(make([]byte, 0, lr.encodedLen())) }

// DecodeLogRecord parses a record. Its strings and payload alias data
// (wire.NewReader): the contract decodes transaction args, which the chain
// never mutates.
func DecodeLogRecord(data []byte) (LogRecord, error) {
	rd := wire.NewReader(data)
	var lr LogRecord
	lr.Kind, lr.ReqID, lr.TraceID = readRecordHeader(&rd)
	lr.Tenant, lr.Origin, lr.Agent = rd.Str(), rd.Str(), rd.Str()
	lr.ReqDigest = readDigest(&rd)
	switch lr.Kind {
	case KindPDPResponse:
		lr.RespDigest, lr.DecisionTag, lr.PolicyDigest = readDigest(&rd), readDigest(&rd), readDigest(&rd)
	case KindPEPResponse:
		lr.RespDigest, lr.DecisionTag, lr.EnforcedTag = readDigest(&rd), readDigest(&rd), readDigest(&rd)
	}
	lr.PolicyVersion = rd.Str()
	lr.TimestampUnixNano = int64(rd.U64())
	lr.Payload = rd.Blob()
	if err := rd.End(); err != nil {
		return LogRecord{}, fmt.Errorf("core: decode log record: %w", err)
	}
	return lr, nil
}

// readRecordHeader reads the fields that lead a record. An unknown kind fails
// the reader.
func readRecordHeader(rd *wire.Reader) (kind LogKind, reqID, traceID string) {
	c := rd.U8()
	if int(c) < len(kindOfCode) {
		kind = kindOfCode[c]
	}
	if kind == "" {
		rd.Fail(fmt.Errorf("unknown record kind %d", c))
	}
	return kind, rd.Str(), rd.Str()
}

// recordHeader reads the kind, request ID, trace ID and timestamp of a
// record, and nothing else: it skips the digests and the sealed payload. The
// strings alias data.
func recordHeader(data []byte) (LogRecord, error) {
	rd := wire.NewReader(data)
	var lr LogRecord
	lr.Kind, lr.ReqID, lr.TraceID = readRecordHeader(&rd)
	rd.Str() // tenant
	rd.Str() // origin
	rd.Str() // agent
	digests := 1
	if lr.Kind.response() {
		digests = 4
	}
	rd.Bytes(digests * crypto.DigestSize)
	rd.Str() // policy version
	lr.TimestampUnixNano = int64(rd.U64())
	return lr, rd.Err()
}

func readDigest(rd *wire.Reader) (d crypto.Digest) {
	copy(d[:], rd.Bytes(crypto.DigestSize))
	return d
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
// keyed construction the agents use, so the contract compares tags. It
// travels as the args of a verdict call:
//
//	str reqID | 32B expectedTag | 32B policyDigest | str analyser
type Verdict struct {
	ReqID string
	// ExpectedTag is DecisionTag(K, reqID, expectedDecision).
	ExpectedTag crypto.Digest
	// PolicyDigest is the digest of the policy version the analyser used.
	PolicyDigest crypto.Digest
	// Analyser names the producing component.
	Analyser string
}

// Encode serialises the verdict.
func (v Verdict) Encode() []byte {
	buf := make([]byte, 0, wire.StrLen(len(v.ReqID))+2*crypto.DigestSize+wire.StrLen(len(v.Analyser)))
	buf = wire.AppendStr(buf, v.ReqID)
	buf = append(buf, v.ExpectedTag[:]...)
	buf = append(buf, v.PolicyDigest[:]...)
	return wire.AppendStr(buf, v.Analyser)
}

// DecodeVerdict parses a verdict; its strings alias data.
func DecodeVerdict(data []byte) (Verdict, error) {
	rd := wire.NewReader(data)
	v := Verdict{ReqID: rd.Str(), ExpectedTag: readDigest(&rd), PolicyDigest: readDigest(&rd), Analyser: rd.Str()}
	if err := rd.End(); err != nil {
		return Verdict{}, fmt.Errorf("core: decode verdict: %w", err)
	}
	return v, nil
}

// EncryptedContext is the plaintext sealed into LogRecord.Payload: the full
// exchange context for authorised forensics and the analyser. It is sealed in
// the PEP↔PDP codec (xacml/wire.go), not in a format of its own:
//
//	u8 flags | [blob Request.Encode()] | [blob Result.Encode()] | u8 enforced | str note
//
// where flag bit 0 marks a request and bit 1 a result. The seal holds every
// request DecodeRequest accepts; what a request may carry at all is
// Request.AppendChecked's rule, which the PEP applies before any probe sees
// it.
type EncryptedContext struct {
	Request  *xacml.Request
	Result   *xacml.Result
	Enforced xacml.Decision
	Note     string
}

// Flags of a sealed context.
const (
	sealedRequest byte = 1 << iota
	sealedResult
)

// Seal encrypts the context with the LI key, bound to reqID.
func (ec EncryptedContext) Seal(cipher *crypto.Cipher, reqID string) ([]byte, error) {
	var flags byte
	var req, res []byte
	if ec.Request != nil {
		flags |= sealedRequest
		req = ec.Request.Encode()
	}
	if ec.Result != nil {
		flags |= sealedResult
		res = ec.Result.Encode()
	}
	plain := make([]byte, 0, 2+wire.StrLen(len(req))+wire.StrLen(len(res))+wire.StrLen(len(ec.Note)))
	plain = append(plain, flags)
	if req != nil {
		plain = wire.AppendBlob(plain, req)
	}
	if res != nil {
		plain = wire.AppendBlob(plain, res)
	}
	plain = append(plain, byte(ec.Enforced))
	plain = wire.AppendStr(plain, ec.Note)
	return cipher.Encrypt(plain, []byte(reqID))
}

// OpenContext decrypts a sealed context.
func OpenContext(cipher *crypto.Cipher, reqID string, payload []byte) (EncryptedContext, error) {
	return openContext(cipher, reqID, payload, nil)
}

// contextScratch is what openContext decodes into for a caller that keeps
// nothing of a context past its next open (the analyser, one goroutine): the
// plaintext buffer, the request (xacml.DecodeRequestInto) and the result
// (xacml.DecodeResultInto), reused from open to open.
type contextScratch struct {
	plain []byte
	req   xacml.Request
	res   xacml.Result
}

// openContext is OpenContext, into scratch when it is not nil: then the
// context's request, result and note alias scratch and are valid until the
// next open into it.
func openContext(cipher *crypto.Cipher, reqID string, payload []byte, scratch *contextScratch) (EncryptedContext, error) {
	var dst []byte
	if scratch != nil {
		dst = scratch.plain[:0]
	}
	plain, err := cipher.DecryptTo(dst, payload, []byte(reqID))
	if err != nil {
		return EncryptedContext{}, fmt.Errorf("core: open context: %w", err)
	}
	if scratch != nil {
		scratch.plain = plain
	}
	var ec EncryptedContext
	rd := wire.NewReader(plain) // plain is this call's own buffer, or scratch's
	flags := rd.U8()
	if flags&^(sealedRequest|sealedResult) != 0 {
		rd.Fail(fmt.Errorf("flags 0x%02x", flags))
	}
	var req, res []byte
	if flags&sealedRequest != 0 {
		req = rd.Blob()
	}
	if flags&sealedResult != 0 {
		res = rd.Blob()
	}
	ec.Enforced = xacml.Decision(rd.U8())
	ec.Note = rd.Str()
	err = rd.End()
	if err == nil && flags&sealedRequest != 0 {
		if scratch == nil {
			ec.Request, err = xacml.DecodeRequest(req)
		} else if err = xacml.DecodeRequestInto(&scratch.req, req); err == nil {
			ec.Request = &scratch.req
		}
	}
	if err == nil && flags&sealedResult != 0 {
		var r *xacml.Result
		if scratch != nil {
			r = &scratch.res
			err = xacml.DecodeResultInto(r, res)
		} else {
			r = new(xacml.Result)
			*r, err = xacml.DecodeResult(res)
		}
		if err == nil {
			ec.Result = r
		}
	}
	if err != nil {
		return EncryptedContext{}, fmt.Errorf("core: open context: %w", err)
	}
	return ec, nil
}
