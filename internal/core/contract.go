package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/merkle"
	"drams/internal/wire"
)

// ContractName is the on-chain address of the DRAMS log-match contract.
const ContractName = "drams.logmatch"

// Contract event types.
const (
	EventAlert     = "Alert"
	EventMatched   = "Matched"
	EventLogStored = "LogStored"
	EventVerdict   = "VerdictStored"
)

// Contract method names. Their args are the binary encodings of batch.go
// and record.go: a LogBatch, a Verdict.
const (
	// MethodLogBatch anchors probe records under one Merkle root in a
	// single transaction (see LogBatch); a lone record goes as a batch of
	// one. It is the only way a record reaches the chain.
	MethodLogBatch = "logbatch"
	MethodVerdict  = "verdict"
)

// MatchConfig parameterises the log-match contract. All federation nodes
// must deploy it with identical values (it is consensus logic).
type MatchConfig struct {
	// TimeoutBlocks is Δ: how many blocks after the first record of a
	// request the full record set must be present (check M3).
	TimeoutBlocks uint64
	// Analyser is the only identity allowed to submit verdicts.
	Analyser string
	// RequireVerdict makes a missing analyser verdict at timeout an
	// AlertVerdictMissing.
	RequireVerdict bool
}

// LogMatchContract is the smart contract storing and comparing logs
// (paper §II). It is deterministic: all inputs come from transactions and
// block context.
type LogMatchContract struct {
	cfg MatchConfig
}

var (
	_ contract.Contract  = (*LogMatchContract)(nil)
	_ contract.BlockHook = (*LogMatchContract)(nil)
)

// NewLogMatchContract builds the contract with the given parameters.
func NewLogMatchContract(cfg MatchConfig) *LogMatchContract {
	if cfg.TimeoutBlocks == 0 {
		cfg.TimeoutBlocks = 5
	}
	return &LogMatchContract{cfg: cfg}
}

// Name implements contract.Contract.
func (lm *LogMatchContract) Name() string { return ContractName }

// State keys.
func recKey(reqID string, kind LogKind) string { return "rec/" + reqID + "/" + string(kind) }
func verdictKey(reqID string) string           { return "verdict/" + reqID }
func doneKey(reqID string) string              { return "done/" + reqID }
func alertedKey(reqID string, t AlertType) string {
	return "alerted/" + reqID + "/" + string(t)
}
func deadlineKey(due uint64, reqID string) string {
	var hex [16]byte // zero-padded, so byte order is due order
	for i := range hex {
		hex[len(hex)-1-i] = "0123456789abcdef"[due>>(4*i)&0xf]
	}
	return "deadline/" + string(hex[:]) + "/" + reqID
}
func deadlineSetKey(reqID string) string { return "deadline-set/" + reqID }

// one is the value of the marker rows (done/ while open, deadline/,
// deadline-set/, alerted/); Set stores a copy.
var one = []byte("1")

// StoredRecord is what the contract keeps of an anchored record under
// rec/<reqID>/<kind>: the fields the checks read, and the SHA-256 of the
// record's encoding as its transaction carried it. The hash stands in for
// the record wherever the contract asks "is this the record I already hold":
// equal hashes are an idempotent retry, different ones an equivocation. The
// record decoder is canonical, so equal bytes are exactly equal records. The
// record itself (agent, trace, timestamp, sealed payload) stays on chain in
// its transaction and its LogStored event, which is where the analyser and
// forensics read it.
type StoredRecord struct {
	Hash          crypto.Digest // SHA-256 of the record's encoding
	ReqDigest     crypto.Digest // M1
	RespDigest    crypto.Digest // M2
	DecisionTag   crypto.Digest // M2, M4, M5
	EnforcedTag   crypto.Digest // M4
	PolicyDigest  crypto.Digest // M6
	Tenant        string        // names the tenant in M1, M2, M4–M6 and equivocation alerts
	Origin        string        // names the tenant in M3 alerts
	PolicyVersion string        // M6
}

// State row of a record (big-endian):
//
//	  0  32B hash         64  32B respDigest   128  32B enforcedTag
//	 32  32B reqDigest    96  32B decisionTag  160  32B policyDigest
//	192  u32 len(tenant)  196  u32 len(origin)  200  u32 len(policyVersion)
//	204  tenant bytes, then origin bytes, then policyVersion bytes
//
// and of a verdict: 32B hash of the verdict's args | 32B expectedTag |
// 32B policyDigest.
const (
	recordRowFixed = 6*crypto.DigestSize + 12
	verdictRowLen  = 3 * crypto.DigestSize
)

// digests lists the row's six digests in row order.
func (sr *StoredRecord) digests() [6]*crypto.Digest {
	return [...]*crypto.Digest{&sr.Hash, &sr.ReqDigest, &sr.RespDigest, &sr.DecisionTag, &sr.EnforcedTag, &sr.PolicyDigest}
}

// appendRecordRow appends the row of sr to buf.
func appendRecordRow(buf []byte, sr *StoredRecord) []byte {
	for _, d := range sr.digests() {
		buf = append(buf, d[:]...)
	}
	for _, s := range [...]string{sr.Tenant, sr.Origin, sr.PolicyVersion} {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	}
	buf = append(buf, sr.Tenant...)
	buf = append(buf, sr.Origin...)
	return append(buf, sr.PolicyVersion...)
}

// recordRowLen is the size of sr's row.
func recordRowLen(sr *StoredRecord) int {
	return recordRowFixed + len(sr.Tenant) + len(sr.Origin) + len(sr.PolicyVersion)
}

// decodeRecordRow is the inverse of appendRecordRow; ok=false for anything
// that is not exactly one row. The strings alias row: a stored row is never
// written in place (see contract.State).
func decodeRecordRow(row []byte) (sr StoredRecord, ok bool) {
	if len(row) < recordRowFixed {
		return StoredRecord{}, false
	}
	tenantLen := uint64(binary.BigEndian.Uint32(row[recordRowFixed-12:]))
	originLen := uint64(binary.BigEndian.Uint32(row[recordRowFixed-8:]))
	versionLen := uint64(binary.BigEndian.Uint32(row[recordRowFixed-4:]))
	if uint64(len(row)) != recordRowFixed+tenantLen+originLen+versionLen {
		return StoredRecord{}, false
	}
	for i, d := range sr.digests() {
		copy(d[:], row[i*crypto.DigestSize:])
	}
	strs := row[recordRowFixed:]
	sr.Tenant = aliasString(strs[:tenantLen])
	sr.Origin = aliasString(strs[tenantLen : tenantLen+originLen])
	sr.PolicyVersion = aliasString(strs[tenantLen+originLen:])
	return sr, true
}

// aliasString views b as a string without copying; b must never change.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// storedVerdict is the verdict/<reqID> row: what M5 reads, behind the hash
// that detects a conflicting second verdict.
type storedVerdict struct {
	Hash, ExpectedTag, PolicyDigest crypto.Digest
}

// appendVerdictRow appends the row of sv to buf.
func appendVerdictRow(buf []byte, sv *storedVerdict) []byte {
	buf = append(buf, sv.Hash[:]...)
	buf = append(buf, sv.ExpectedTag[:]...)
	return append(buf, sv.PolicyDigest[:]...)
}

func decodeVerdictRow(row []byte) (sv storedVerdict, ok bool) {
	if len(row) != verdictRowLen {
		return storedVerdict{}, false
	}
	copy(sv.Hash[:], row)
	copy(sv.ExpectedTag[:], row[crypto.DigestSize:])
	copy(sv.PolicyDigest[:], row[2*crypto.DigestSize:])
	return sv, true
}

// A matched exchange folds once its M3 deadline has passed (OnBlock): its
// done/<reqID> row, "1" while it is open, becomes the tombstone
//
//	4 × 32B record hash, in pipeline order | 32B verdict hash
//
// and its rec/, verdict/ and deadline-set/ rows are deleted. The hashes are
// all a late transaction is compared against: an identical record is a
// no-op, an identical verdict is re-emitted, a different one is an
// equivocation, exactly as against the rows.
const tombstoneLen = 5 * crypto.DigestSize

// tombstone is a folded exchange's done/ row: its records' hashes, indexed
// by kind code - 1, and its verdict's hash.
type tombstone struct {
	records [4]crypto.Digest
	verdict crypto.Digest
}

// loadTombstone reads a folded exchange's tombstone; ok=false for an
// exchange that is open, unfolded or unknown.
func loadTombstone(st contract.StateDB, reqID string) (tomb tombstone, ok bool) {
	row, ok := st.Get(doneKey(reqID))
	if !ok || len(row) != tombstoneLen {
		return tomb, false
	}
	for i := range tomb.records {
		copy(tomb.records[i][:], row[i*crypto.DigestSize:])
	}
	copy(tomb.verdict[:], row[4*crypto.DigestSize:])
	return tomb, true
}

// encodeMatched is the Matched event payload: str reqID | u64 height.
func encodeMatched(reqID string, height uint64) []byte {
	buf := make([]byte, 0, wire.StrLen(len(reqID))+8)
	buf = wire.AppendStr(buf, reqID)
	return binary.BigEndian.AppendUint64(buf, height)
}

// decodeMatched parses a Matched payload; reqID aliases it.
func decodeMatched(payload []byte) (reqID string, height uint64, err error) {
	rd := wire.NewReader(payload)
	reqID, height = rd.Str(), rd.U64()
	return reqID, height, rd.End()
}

// Execute implements contract.Contract.
func (lm *LogMatchContract) Execute(ctx contract.CallCtx, st contract.StateDB, call contract.Call) ([]contract.Event, error) {
	switch call.Method {
	case MethodLogBatch:
		return lm.execBatch(ctx, st, call.Args)
	case MethodVerdict:
		return lm.execVerdict(ctx, st, call.Args)
	default:
		return nil, fmt.Errorf("%w: %q", contract.ErrUnknownMethod, call.Method)
	}
}

// storeRecord applies one validated record: duplicate and equivocation
// handling, storage, M3 deadline arming and the LogStored event, appended to
// events. enc is the record's encoding as the transaction carried it, and
// the event's payload. stored=false means the record was an idempotent
// duplicate or an equivocation attempt (the original is kept) and no checks
// should run.
func (lm *LogMatchContract) storeRecord(ctx contract.CallCtx, st contract.StateDB, rec *LogRecord, enc []byte, events []contract.Event) (_ []contract.Event, stored bool) {
	key := recKey(rec.ReqID, rec.Kind)
	hash := crypto.Sum(enc)
	again := func(prev crypto.Digest) []contract.Event {
		if prev == hash {
			return events // idempotent duplicate (client retry)
		}
		// Conflicting second record for the same interception point.
		return lm.alert(st, Alert{
			Type: AlertEquivocation, ReqID: rec.ReqID, Tenant: rec.Tenant, Height: ctx.Height,
			Detail: fmt.Sprintf("conflicting %s records from %s", rec.Kind, ctx.Caller),
		}, events) // keep the original record
	}
	if existing, ok := st.Get(key); ok {
		prev, _ := decodeRecordRow(existing) // a malformed row's zero hash conflicts
		return again(prev.Hash), false
	}
	// No deadline armed: the request's first record, or one of a folded
	// exchange, which its tombstone answers for.
	armKey := deadlineSetKey(rec.ReqID)
	_, armed := st.Get(armKey)
	if !armed {
		if tomb, folded := loadTombstone(st, rec.ReqID); folded {
			return again(tomb.records[rec.Kind.code()-1]), false
		}
	}
	sr := StoredRecord{
		Hash: hash, ReqDigest: rec.ReqDigest, RespDigest: rec.RespDigest, DecisionTag: rec.DecisionTag,
		EnforcedTag: rec.EnforcedTag, PolicyDigest: rec.PolicyDigest,
		Tenant: rec.Tenant, Origin: rec.Origin, PolicyVersion: rec.PolicyVersion,
	}
	st.Set(key, appendRecordRow(contract.Scratch(st, recordRowLen(&sr)), &sr))
	events = append(events, contract.Event{Type: EventLogStored, Payload: enc})

	// Arm the M3 deadline on the first record of the request.
	if !armed {
		st.Set(armKey, one)
		st.Set(deadlineKey(ctx.Height+lm.cfg.TimeoutBlocks, rec.ReqID), one)
	}
	return events, true
}

// execBatch applies one Merkle-anchored window of records. The root is
// recomputed over the record bytes as they lie in the args before any record
// is decoded — a batch whose root does not bind exactly its records is
// rejected, so anchoring is as tamper-evident as individual submissions
// while costing one signature verification and one transaction per window.
// Then each record is decoded once, into one value on the stack, and
// stored; its LogStored event's payload is the record's bytes as they lie in
// the args, so the event copies nothing. A batch of up to 16 records builds
// its tree on the stack. The matching checks run once per distinct request
// the batch advanced (they are functions of stored state, so one pass after
// all of a request's records landed is equivalent to a pass after each).
func (lm *LogMatchContract) execBatch(ctx contract.CallCtx, st contract.StateDB, args []byte) ([]contract.Event, error) {
	br := readBatch(args)
	var small [merkle.SmallNodes]crypto.Digest
	nodes := merkle.Storage(&small, br.n)
	leaves := br // br reads the records again below
	for range br.n {
		nodes = append(nodes, merkle.LeafHash(leaves.rd.Blob()))
	}
	if err := leaves.rd.End(); err != nil {
		return nil, fmt.Errorf("%w: core: decode log batch: %v", contract.ErrBadArgs, err)
	}
	tree := merkle.From(nodes)
	if tree.Root() != br.root {
		return nil, fmt.Errorf("%w: claimed batch root %s does not match records (computed %s)",
			contract.ErrBadArgs, br.root.Short(), tree.Root().Short())
	}

	events := make([]contract.Event, 0, br.n+1)
	var orderBuf [4]string
	order := orderBuf[:0] // the requests advanced, in batch order; a window holds a few
	for i := 0; i < br.n; i++ {
		leaf := br.rd.Blob()
		rec, err := DecodeLogRecord(leaf)
		if err != nil {
			return nil, fmt.Errorf("%w: core: decode log batch: record %d: %v", contract.ErrBadArgs, i, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", contract.ErrBadArgs, i, err)
		}
		var stored bool
		events, stored = lm.storeRecord(ctx, st, &rec, leaf, events)
		if stored && !slices.Contains(order, rec.ReqID) {
			order = append(order, rec.ReqID)
		}
	}
	for _, reqID := range order {
		events = lm.runChecks(ctx, st, reqID, ctx.Height, events)
	}
	return events, nil
}

func (lm *LogMatchContract) execVerdict(ctx contract.CallCtx, st contract.StateDB, args []byte) ([]contract.Event, error) {
	if lm.cfg.Analyser != "" && ctx.Caller != lm.cfg.Analyser {
		return nil, fmt.Errorf("core: verdict from %q, only %q may submit verdicts", ctx.Caller, lm.cfg.Analyser)
	}
	v, err := DecodeVerdict(args)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", contract.ErrBadArgs, err)
	}
	if v.ReqID == "" || v.ExpectedTag.IsZero() {
		return nil, fmt.Errorf("%w: incomplete verdict", contract.ErrBadArgs)
	}
	hash := crypto.Sum(args)
	key := verdictKey(v.ReqID)
	existing, have := st.Get(key)
	prev, _ := decodeVerdictRow(existing) // a malformed row's zero hash conflicts
	// No verdict row: the request's first verdict, or one of a folded
	// exchange, which its tombstone answers for.
	folded := false
	if !have {
		var tomb tombstone
		tomb, folded = loadTombstone(st, v.ReqID)
		prev.Hash, have = tomb.verdict, folded
	}
	if have && prev.Hash != hash {
		return lm.alert(st, Alert{
			Type: AlertEquivocation, ReqID: v.ReqID, Height: ctx.Height,
			Detail: "conflicting analyser verdicts",
		}, nil), nil
	}
	events := make([]contract.Event, 1, 2)
	events[0] = contract.Event{Type: EventVerdict, Payload: args}
	if folded {
		// Every check of a folded exchange has run; its verdict is re-emitted
		// and nothing re-runs.
		return events, nil
	}
	sv := storedVerdict{Hash: hash, ExpectedTag: v.ExpectedTag, PolicyDigest: v.PolicyDigest}
	st.Set(key, appendVerdictRow(contract.Scratch(st, verdictRowLen), &sv))
	return lm.runChecks(ctx, st, v.ReqID, ctx.Height, events), nil
}

// checkM6Policy computes the M6 verdict for one pdp.response record,
// returning the alert to raise (ok=false means the record is clean). The
// trust anchor is the policy lifecycle contract's chain-replicated state,
// read cross-contract.
func (lm *LogMatchContract) checkM6Policy(ctx contract.CallCtx, pdpResp StoredRecord, reqID string, height uint64) (Alert, bool) {
	version := pdpResp.PolicyVersion
	tampered := func(format string, args ...any) (Alert, bool) {
		return Alert{
			Type: AlertPolicyTampered, ReqID: reqID, Tenant: pdpResp.Tenant, Height: height,
			Detail: fmt.Sprintf(format, args...),
		}, true
	}
	var pst contract.StateDB = crossState{cross: ctx.Cross, name: PolicyContractName} // boxed once
	activeVer, _, haveActive := ReadActivePolicy(pst)
	anchored, haveAnchor := ReadPolicyDigest(pst, version)
	switch {
	case !haveActive || !haveAnchor:
		return tampered("PDP claims policy version %q which is not anchored", version)
	case anchored != pdpResp.PolicyDigest:
		return tampered("PDP policy digest %s differs from anchored digest for version %q",
			pdpResp.PolicyDigest.Short(), version)
	case version != activeVer:
		// Around a height-gated flip, decisions evaluated just before
		// activation log just after it. A superseded version stays
		// acceptable for the Δ window (the same bound M3 uses); anything
		// older — or never activated — alerts.
		if deact, ok := ReadPolicyDeactivatedAt(pst, version); ok && height <= deact+lm.cfg.TimeoutBlocks {
			return Alert{}, false
		}
		return tampered("PDP evaluated version %q but active version is %q", version, activeVer)
	}
	return Alert{}, false
}

// alert records an alert once per (request, type) and appends its event to
// events.
func (lm *LogMatchContract) alert(st contract.StateDB, a Alert, events []contract.Event) []contract.Event {
	k := alertedKey(a.ReqID, a.Type)
	if _, ok := st.Get(k); ok {
		return events
	}
	st.Set(k, one)
	return append(events, contract.Event{Type: EventAlert, Payload: a.Encode()})
}

// loadRecord fetches the stored row of a record.
func loadRecord(st contract.StateDB, reqID string, kind LogKind) (StoredRecord, bool) {
	row, ok := st.Get(recKey(reqID, kind))
	if !ok {
		return StoredRecord{}, false
	}
	return decodeRecordRow(row)
}

// runChecks executes M1, M2, M4, M5, M6 for a request with the currently
// available records, and emits Matched when the exchange is complete and
// clean. The events are appended to events.
func (lm *LogMatchContract) runChecks(ctx contract.CallCtx, st contract.StateDB, reqID string, height uint64, events []contract.Event) []contract.Event {
	pepReq, havePepReq := loadRecord(st, reqID, KindPEPRequest)
	pdpReq, havePdpReq := loadRecord(st, reqID, KindPDPRequest)
	pdpResp, havePdpResp := loadRecord(st, reqID, KindPDPResponse)
	pepResp, havePepResp := loadRecord(st, reqID, KindPEPResponse)

	// M1: request integrity in transit.
	if havePepReq && havePdpReq && pepReq.ReqDigest != pdpReq.ReqDigest {
		events = lm.alert(st, Alert{
			Type: AlertRequestTampered, ReqID: reqID, Tenant: pepReq.Tenant, Height: height,
			Detail: fmt.Sprintf("request digest at PEP egress %s != at PDP ingress %s",
				pepReq.ReqDigest.Short(), pdpReq.ReqDigest.Short()),
		}, events)
	}

	// M2: response integrity in transit (content and decision).
	if havePdpResp && havePepResp {
		if pdpResp.RespDigest != pepResp.RespDigest || pdpResp.DecisionTag != pepResp.DecisionTag {
			events = lm.alert(st, Alert{
				Type: AlertResponseTampered, ReqID: reqID, Tenant: pepResp.Tenant, Height: height,
				Detail: fmt.Sprintf("response at PDP egress %s/%s != at PEP ingress %s/%s",
					pdpResp.RespDigest.Short(), pdpResp.DecisionTag.Short(),
					pepResp.RespDigest.Short(), pepResp.DecisionTag.Short()),
			}, events)
		}
	}

	// M4: enforcement correctness (what the PEP did vs. what it received).
	if havePepResp && pepResp.EnforcedTag != pepResp.DecisionTag {
		events = lm.alert(st, Alert{
			Type: AlertEnforcementMismatch, ReqID: reqID, Tenant: pepResp.Tenant, Height: height,
			Detail: fmt.Sprintf("PEP enforced %s but received decision %s",
				pepResp.EnforcedTag.Short(), pepResp.DecisionTag.Short()),
		}, events)
	}

	// M5: decision correctness against the analyser's expectation.
	var verdict storedVerdict
	haveVerdict := false
	if row, ok := st.Get(verdictKey(reqID)); ok {
		verdict, haveVerdict = decodeVerdictRow(row)
	}
	if haveVerdict && havePdpResp && verdict.ExpectedTag != pdpResp.DecisionTag {
		events = lm.alert(st, Alert{
			Type: AlertDecisionIncorrect, ReqID: reqID, Tenant: pdpResp.Tenant, Height: height,
			Detail: fmt.Sprintf("PDP decision tag %s differs from expected %s (policy %s)",
				pdpResp.DecisionTag.Short(), verdict.ExpectedTag.Short(), verdict.PolicyDigest.Short()),
		}, events)
	}

	// M6: policy integrity — the PDP must have evaluated the anchored
	// digest of the active version.
	if havePdpResp {
		if a, ok := lm.checkM6Policy(ctx, pdpResp, reqID, height); ok {
			events = lm.alert(st, a, events)
		}
	}

	// Completion: all four legs present, verdict present if required, and
	// no alert raised for this request.
	complete := havePepReq && havePdpReq && havePdpResp && havePepResp &&
		(haveVerdict || !lm.cfg.RequireVerdict)
	if complete {
		key := doneKey(reqID)
		if _, done := st.Get(key); !done && !anyKey(st, "alerted/"+reqID+"/") {
			st.Set(key, one)
			events = append(events, contract.Event{Type: EventMatched, Payload: encodeMatched(reqID, height)})
		}
	}
	return events
}

// OnBlock implements contract.BlockHook: it fires M3 timeout alerts for
// requests whose record set is still incomplete when their deadline passes.
// They name the origin tenant of the records that did arrive: whose
// exchange it was, whichever side logged them. A request already matched
// when its deadline passes is folded into its tombstone instead.
func (lm *LogMatchContract) OnBlock(height uint64, blockTime time.Time, st contract.StateDB) []contract.Event {
	var events []contract.Event
	for {
		reqID, valid, ok := popDue(st, "deadline/", height)
		if !ok {
			break
		}
		if !valid {
			continue
		}

		if _, done := st.Get(doneKey(reqID)); done {
			fold(st, reqID)
			continue
		}
		var missing []string
		tenant := ""
		for _, kind := range kindOfCode[1:] {
			rec, ok := loadRecord(st, reqID, kind)
			if !ok {
				missing = append(missing, string(kind))
			} else if tenant == "" {
				tenant = cmp.Or(rec.Origin, rec.Tenant)
			}
		}
		if len(missing) > 0 {
			events = lm.alert(st, Alert{
				Type: AlertMessageSuppressed, ReqID: reqID, Tenant: tenant, Height: height,
				Detail: fmt.Sprintf("missing after %d blocks: %s", lm.cfg.TimeoutBlocks, strings.Join(missing, ", ")),
			}, events)
			continue
		}
		if lm.cfg.RequireVerdict {
			if _, ok := st.Get(verdictKey(reqID)); !ok {
				events = lm.alert(st, Alert{
					Type: AlertVerdictMissing, ReqID: reqID, Tenant: tenant, Height: height,
					Detail: fmt.Sprintf("no analyser verdict after %d blocks", lm.cfg.TimeoutBlocks),
				}, events)
			}
		}
	}
	return events
}

// popDue deletes the first key of a queue of "<prefix><due>/<id>" rows if it
// is due at height or malformed, and returns its id (valid=false for a
// malformed key); ok=false when the queue is empty or its first key is not
// yet due. due is zero-padded hex, so byte order is due order: a block pops
// what is due and reads one key more, however long the queue is, and
// allocates nothing for the queue.
func popDue(st contract.StateDB, prefix string, height uint64) (id string, valid, ok bool) {
	key, ok := contract.FirstKey(st, prefix)
	if !ok {
		return "", false, false
	}
	due, id, valid := parseQueueKey(key, prefix)
	if valid && due > height {
		return "", false, false
	}
	st.Delete(key)
	return id, valid, true
}

// parseQueueKey splits a queue key into its due height and id; ok=false for
// a malformed key, which the hook deletes.
func parseQueueKey(key, prefix string) (due uint64, id string, ok bool) {
	rest := strings.TrimPrefix(key, prefix)
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return 0, "", false
	}
	due, err := strconv.ParseUint(rest[:slash], 16, 64)
	if err != nil {
		return 0, "", false
	}
	return due, rest[slash+1:], true
}

// anyKey reports whether st holds a key with the given prefix.
func anyKey(st contract.StateDB, prefix string) bool {
	_, ok := contract.FirstKey(st, prefix)
	return ok
}

// fold replaces a matched exchange's rows with its tombstone (see
// tombstoneLen). Every check has run on them by the M3 deadline, so the
// hashes are all a late transaction still needs. An exchange that was
// alerted, or matched without a verdict, keeps its rows: they are its
// evidence, and the missing verdict may yet arrive.
func fold(st contract.StateDB, reqID string) {
	vkey := verdictKey(reqID)
	vrow, ok := st.Get(vkey)
	if !ok || anyKey(st, "alerted/"+reqID+"/") {
		return
	}
	var keys [4]string
	tomb := contract.Scratch(st, tombstoneLen)
	for i, kind := range kindOfCode[1:] {
		keys[i] = recKey(reqID, kind)
		row, _ := st.Get(keys[i]) // done implies all four
		tomb = append(tomb, row[:crypto.DigestSize]...)
	}
	tomb = append(tomb, vrow[:crypto.DigestSize]...)
	st.Set(doneKey(reqID), tomb)
	for _, key := range keys {
		st.Delete(key)
	}
	st.Delete(vkey)
	st.Delete(deadlineSetKey(reqID))
}

// ReadStoredRecord reads what state holds of an anchored record: the match
// fields and the record's hash, not the record (see StoredRecord).
//
//lint:ignore deadcode state reader for tests: core's and logger's tests check what an anchored record left in state
func ReadStoredRecord(st contract.StateDB, reqID string, kind LogKind) (StoredRecord, bool) {
	return loadRecord(st, reqID, kind)
}
