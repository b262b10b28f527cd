package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

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
	return fmt.Sprintf("alerted/%s/%s", reqID, t)
}
func deadlineKey(due uint64, reqID string) string {
	return fmt.Sprintf("deadline/%016x/%s", due, reqID)
}
func deadlineSetKey(reqID string) string { return "deadline-set/" + reqID }

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

func encodeRecordRow(sr StoredRecord) []byte {
	row := make([]byte, 0, recordRowFixed+len(sr.Tenant)+len(sr.Origin)+len(sr.PolicyVersion))
	for _, d := range sr.digests() {
		row = append(row, d[:]...)
	}
	for _, s := range [...]string{sr.Tenant, sr.Origin, sr.PolicyVersion} {
		row = binary.BigEndian.AppendUint32(row, uint32(len(s)))
	}
	row = append(row, sr.Tenant...)
	row = append(row, sr.Origin...)
	return append(row, sr.PolicyVersion...)
}

// decodeRecordRow is the inverse of encodeRecordRow; ok=false for anything
// that is not exactly one row.
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
	sr.Tenant = string(strs[:tenantLen])
	sr.Origin = string(strs[tenantLen : tenantLen+originLen])
	sr.PolicyVersion = string(strs[tenantLen+originLen:])
	return sr, true
}

// storedVerdict is the verdict/<reqID> row: what M5 reads, behind the hash
// that detects a conflicting second verdict.
type storedVerdict struct {
	Hash, ExpectedTag, PolicyDigest crypto.Digest
}

func encodeVerdictRow(sv storedVerdict) []byte {
	row := make([]byte, 0, verdictRowLen)
	row = append(row, sv.Hash[:]...)
	row = append(row, sv.ExpectedTag[:]...)
	return append(row, sv.PolicyDigest[:]...)
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
//	4 × 32B record hash, in LogKinds order | 32B verdict hash
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
// handling, storage, M3 deadline arming and the LogStored event. enc is the
// record's encoding as the transaction carried it; eventPayload is what the
// event carries. stored=false means the record was an idempotent duplicate
// or an equivocation attempt (the original is kept) and no checks should
// run.
func (lm *LogMatchContract) storeRecord(ctx contract.CallCtx, st contract.StateDB, rec *LogRecord, enc, eventPayload []byte) (events []contract.Event, stored bool) {
	key := recKey(rec.ReqID, rec.Kind)
	hash := crypto.Sum(enc)
	again := func(prev crypto.Digest) ([]contract.Event, bool) {
		if prev == hash {
			return nil, false // idempotent duplicate (client retry)
		}
		// Conflicting second record for the same interception point.
		return lm.alert(st, Alert{
			Type: AlertEquivocation, ReqID: rec.ReqID, Tenant: rec.Tenant, Height: ctx.Height,
			Detail: fmt.Sprintf("conflicting %s records from %s", rec.Kind, ctx.Caller),
		}), false // keep the original record
	}
	if existing, ok := st.Get(key); ok {
		prev, _ := decodeRecordRow(existing) // a malformed row's zero hash conflicts
		return again(prev.Hash)
	}
	// No deadline armed: the request's first record, or one of a folded
	// exchange, which its tombstone answers for.
	_, armed := st.Get(deadlineSetKey(rec.ReqID))
	if !armed {
		if tomb, folded := loadTombstone(st, rec.ReqID); folded {
			return again(tomb.records[rec.Kind.code()-1])
		}
	}
	st.Set(key, encodeRecordRow(StoredRecord{
		Hash: hash, ReqDigest: rec.ReqDigest, RespDigest: rec.RespDigest, DecisionTag: rec.DecisionTag,
		EnforcedTag: rec.EnforcedTag, PolicyDigest: rec.PolicyDigest,
		Tenant: rec.Tenant, Origin: rec.Origin, PolicyVersion: rec.PolicyVersion,
	}))
	events = append(events, contract.Event{Type: EventLogStored, Payload: eventPayload})

	// Arm the M3 deadline on the first record of the request.
	if !armed {
		st.Set(deadlineSetKey(rec.ReqID), []byte("1"))
		st.Set(deadlineKey(ctx.Height+lm.cfg.TimeoutBlocks, rec.ReqID), []byte("1"))
	}
	return events, true
}

// execBatch applies one Merkle-anchored window of records. Each record is
// decoded once, and the root is recomputed over the record bytes as they lie
// in the args — a batch whose root does not bind exactly its records is
// rejected, so anchoring is as tamper-evident as individual submissions
// while costing one signature verification and one transaction per window.
// Each stored record's LogStored event carries a membership proof for
// off-chain verification; the matching checks run once per distinct request
// the batch advanced (they are functions of stored state, so one pass after
// all of a request's records landed is equivalent to a pass after each).
func (lm *LogMatchContract) execBatch(ctx contract.CallCtx, st contract.StateDB, args []byte) ([]contract.Event, error) {
	lb, err := DecodeLogBatch(args)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", contract.ErrBadArgs, err)
	}
	for i := range lb.Records {
		if err := lb.Records[i].Validate(); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", contract.ErrBadArgs, i, err)
		}
	}
	tree, err := merkle.Build(lb.leaves)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", contract.ErrBadArgs, err)
	}
	if tree.Root() != lb.Root {
		return nil, fmt.Errorf("%w: claimed batch root %s does not match records (computed %s)",
			contract.ErrBadArgs, lb.Root.Short(), tree.Root().Short())
	}

	var events []contract.Event
	var order []string // the requests advanced, in batch order; a window holds a few
	for i := range lb.Records {
		rec := &lb.Records[i]
		proof, perr := tree.Prove(i)
		if perr != nil {
			return nil, fmt.Errorf("%w: %v", contract.ErrBadArgs, perr)
		}
		evs, stored := lm.storeRecord(ctx, st, rec, lb.leaves[i], storedPayload(lb.Root, i, proof, lb.leaves[i]))
		events = append(events, evs...)
		if stored && !slices.Contains(order, rec.ReqID) {
			order = append(order, rec.ReqID)
		}
	}
	for _, reqID := range order {
		events = append(events, lm.runChecks(ctx, st, reqID, ctx.Height)...)
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
	existing, have := st.Get(verdictKey(v.ReqID))
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
		}), nil
	}
	if folded {
		// Every check of a folded exchange has run; its verdict is re-emitted
		// and nothing re-runs.
		return []contract.Event{{Type: EventVerdict, Payload: args}}, nil
	}
	st.Set(verdictKey(v.ReqID), encodeVerdictRow(storedVerdict{Hash: hash, ExpectedTag: v.ExpectedTag, PolicyDigest: v.PolicyDigest}))
	events := []contract.Event{{Type: EventVerdict, Payload: args}}
	events = append(events, lm.runChecks(ctx, st, v.ReqID, ctx.Height)...)
	return events, nil
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
	pst := crossState{cross: ctx.Cross, name: PolicyContractName}
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

// alert records and emits an alert once per (request, type).
func (lm *LogMatchContract) alert(st contract.StateDB, a Alert) []contract.Event {
	k := alertedKey(a.ReqID, a.Type)
	if _, ok := st.Get(k); ok {
		return nil
	}
	st.Set(k, []byte("1"))
	return []contract.Event{{Type: EventAlert, Payload: a.Encode()}}
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
// clean.
func (lm *LogMatchContract) runChecks(ctx contract.CallCtx, st contract.StateDB, reqID string, height uint64) []contract.Event {
	var events []contract.Event

	pepReq, havePepReq := loadRecord(st, reqID, KindPEPRequest)
	pdpReq, havePdpReq := loadRecord(st, reqID, KindPDPRequest)
	pdpResp, havePdpResp := loadRecord(st, reqID, KindPDPResponse)
	pepResp, havePepResp := loadRecord(st, reqID, KindPEPResponse)

	// M1: request integrity in transit.
	if havePepReq && havePdpReq && pepReq.ReqDigest != pdpReq.ReqDigest {
		events = append(events, lm.alert(st, Alert{
			Type: AlertRequestTampered, ReqID: reqID, Tenant: pepReq.Tenant, Height: height,
			Detail: fmt.Sprintf("request digest at PEP egress %s != at PDP ingress %s",
				pepReq.ReqDigest.Short(), pdpReq.ReqDigest.Short()),
		})...)
	}

	// M2: response integrity in transit (content and decision).
	if havePdpResp && havePepResp {
		if pdpResp.RespDigest != pepResp.RespDigest || pdpResp.DecisionTag != pepResp.DecisionTag {
			events = append(events, lm.alert(st, Alert{
				Type: AlertResponseTampered, ReqID: reqID, Tenant: pepResp.Tenant, Height: height,
				Detail: fmt.Sprintf("response at PDP egress %s/%s != at PEP ingress %s/%s",
					pdpResp.RespDigest.Short(), pdpResp.DecisionTag.Short(),
					pepResp.RespDigest.Short(), pepResp.DecisionTag.Short()),
			})...)
		}
	}

	// M4: enforcement correctness (what the PEP did vs. what it received).
	if havePepResp && pepResp.EnforcedTag != pepResp.DecisionTag {
		events = append(events, lm.alert(st, Alert{
			Type: AlertEnforcementMismatch, ReqID: reqID, Tenant: pepResp.Tenant, Height: height,
			Detail: fmt.Sprintf("PEP enforced %s but received decision %s",
				pepResp.EnforcedTag.Short(), pepResp.DecisionTag.Short()),
		})...)
	}

	// M5: decision correctness against the analyser's expectation.
	var verdict storedVerdict
	haveVerdict := false
	if row, ok := st.Get(verdictKey(reqID)); ok {
		verdict, haveVerdict = decodeVerdictRow(row)
	}
	if haveVerdict && havePdpResp && verdict.ExpectedTag != pdpResp.DecisionTag {
		events = append(events, lm.alert(st, Alert{
			Type: AlertDecisionIncorrect, ReqID: reqID, Tenant: pdpResp.Tenant, Height: height,
			Detail: fmt.Sprintf("PDP decision tag %s differs from expected %s (policy %s)",
				pdpResp.DecisionTag.Short(), verdict.ExpectedTag.Short(), verdict.PolicyDigest.Short()),
		})...)
	}

	// M6: policy integrity — the PDP must have evaluated the anchored
	// digest of the active version.
	if havePdpResp {
		if a, ok := lm.checkM6Policy(ctx, pdpResp, reqID, height); ok {
			events = append(events, lm.alert(st, a)...)
		}
	}

	// Completion: all four legs present, verdict present if required, and
	// no alert raised for this request.
	complete := havePepReq && havePdpReq && havePdpResp && havePepResp &&
		(haveVerdict || !lm.cfg.RequireVerdict)
	if complete {
		if _, done := st.Get(doneKey(reqID)); !done && !anyKey(st, "alerted/"+reqID+"/") {
			st.Set(doneKey(reqID), []byte("1"))
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
	for _, key := range dueKeys(st, "deadline/", height) {
		st.Delete(key)
		_, reqID, ok := parseQueueKey(key, "deadline/")
		if !ok {
			continue
		}

		if _, done := st.Get(doneKey(reqID)); done {
			fold(st, reqID)
			continue
		}
		var missing []string
		tenant := ""
		for _, kind := range LogKinds() {
			rec, ok := loadRecord(st, reqID, kind)
			if !ok {
				missing = append(missing, string(kind))
			} else if tenant == "" {
				tenant = cmp.Or(rec.Origin, rec.Tenant)
			}
		}
		if len(missing) > 0 {
			events = append(events, lm.alert(st, Alert{
				Type: AlertMessageSuppressed, ReqID: reqID, Tenant: tenant, Height: height,
				Detail: fmt.Sprintf("missing after %d blocks: %s", lm.cfg.TimeoutBlocks, strings.Join(missing, ", ")),
			})...)
			continue
		}
		if lm.cfg.RequireVerdict {
			if _, ok := st.Get(verdictKey(reqID)); !ok {
				events = append(events, lm.alert(st, Alert{
					Type: AlertVerdictMissing, ReqID: reqID, Tenant: tenant, Height: height,
					Detail: fmt.Sprintf("no analyser verdict after %d blocks", lm.cfg.TimeoutBlocks),
				})...)
			}
		}
	}
	return events
}

// dueKeys lists, in order, the keys of a queue of "<prefix><due>/<id>" rows
// that are due at height or malformed, and stops at the first one that is
// not yet due: due is zero-padded hex, so byte order is due order. A block
// reads O(log n + due) keys however long the queue is.
func dueKeys(st contract.StateDB, prefix string, height uint64) []string {
	var due []string
	for key := range st.Keys(prefix) {
		if at, _, ok := parseQueueKey(key, prefix); ok && at > height {
			break
		}
		due = append(due, key)
	}
	return due
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
	for range st.Keys(prefix) {
		return true
	}
	return false
}

// fold replaces a matched exchange's rows with its tombstone (see
// tombstoneLen). Every check has run on them by the M3 deadline, so the
// hashes are all a late transaction still needs. An exchange that was
// alerted, or matched without a verdict, keeps its rows: they are its
// evidence, and the missing verdict may yet arrive.
func fold(st contract.StateDB, reqID string) {
	vrow, ok := st.Get(verdictKey(reqID))
	if !ok || anyKey(st, "alerted/"+reqID+"/") {
		return
	}
	tomb := make([]byte, 0, tombstoneLen)
	for _, kind := range LogKinds() {
		row, _ := st.Get(recKey(reqID, kind)) // done implies all four
		tomb = append(tomb, row[:crypto.DigestSize]...)
	}
	tomb = append(tomb, vrow[:crypto.DigestSize]...)
	st.Set(doneKey(reqID), tomb)
	for _, kind := range LogKinds() {
		st.Delete(recKey(reqID, kind))
	}
	st.Delete(verdictKey(reqID))
	st.Delete(deadlineSetKey(reqID))
}

// ReadStoredRecord reads what state holds of an anchored record: the match
// fields and the record's hash, not the record (see StoredRecord).
//
//lint:ignore deadcode state reader for tests: core's and logger's tests check what an anchored record left in state
func ReadStoredRecord(st contract.StateDB, reqID string, kind LogKind) (StoredRecord, bool) {
	return loadRecord(st, reqID, kind)
}
