package core

import (
	"encoding/json"
	"fmt"
	"strconv"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/merkle"
)

// MaxLogBatch bounds how many records one batch transaction may anchor. It
// is a validation limit all replicas share: a hostile batch cannot force a
// replica to hash an unbounded leaf set.
const MaxLogBatch = 256

// LogBatch is the argument of MethodLogBatch: one flush window of probe
// records anchored under a single Merkle root. The LI signs the batch once
// instead of once per record, so a window of N observations costs one
// transaction and one signature instead of N of each — the
// contract recomputes the root from the records and rejects any mismatch,
// so the anchoring is exactly as binding as N individual transactions.
type LogBatch struct {
	Root    crypto.Digest `json:"root"`
	Records []LogRecord   `json:"records"`
}

// NewLogBatch builds a batch over the given records, computing the Merkle
// root over their canonical encodings.
func NewLogBatch(recs []LogRecord) (LogBatch, error) {
	if len(recs) == 0 {
		return LogBatch{}, fmt.Errorf("core: empty log batch")
	}
	if len(recs) > MaxLogBatch {
		return LogBatch{}, fmt.Errorf("core: batch of %d records exceeds limit %d", len(recs), MaxLogBatch)
	}
	leaves := make([][]byte, len(recs))
	for i := range recs {
		leaves[i] = recs[i].Encode()
	}
	tree, err := merkle.Build(leaves)
	if err != nil {
		return LogBatch{}, err
	}
	return LogBatch{Root: tree.Root(), Records: recs}, nil
}

// Encode serialises the batch.
func (lb LogBatch) Encode() []byte {
	b, err := json.Marshal(lb)
	if err != nil {
		panic(fmt.Sprintf("core: encode log batch: %v", err))
	}
	return b
}

// DecodeLogBatch parses a batch.
func DecodeLogBatch(data []byte) (LogBatch, error) {
	var lb LogBatch
	if err := json.Unmarshal(data, &lb); err != nil {
		return LogBatch{}, fmt.Errorf("core: decode log batch: %w", err)
	}
	return lb, nil
}

// BatchedRecord is the LogStored event payload for a batch-anchored record:
// the record itself plus the membership proof tying it to the anchored
// root. Off-chain consumers (the analyser foremost) verify the proof against
// the on-chain anchor before trusting the record, so an event forger cannot
// inject observations the chain never committed to.
type BatchedRecord struct {
	Record LogRecord     `json:"record"`
	Root   crypto.Digest `json:"root"`
	Index  int           `json:"index"`
	Proof  merkle.Proof  `json:"proof"`
}

// Encode serialises the envelope.
func (br BatchedRecord) Encode() []byte {
	b, err := json.Marshal(br)
	if err != nil {
		panic(fmt.Sprintf("core: encode batched record: %v", err))
	}
	return b
}

// DecodeBatchedRecord parses a batched-record envelope. Payloads that are
// plain records (or anything else) fail: the envelope must carry a root and
// a record.
func DecodeBatchedRecord(data []byte) (BatchedRecord, error) {
	var br BatchedRecord
	if err := json.Unmarshal(data, &br); err != nil {
		return BatchedRecord{}, fmt.Errorf("core: decode batched record: %w", err)
	}
	if br.Root.IsZero() || br.Record.ReqID == "" {
		return BatchedRecord{}, fmt.Errorf("core: payload is not a batched record")
	}
	return br, nil
}

// VerifyInclusion checks the record's membership under the envelope's root.
func (br BatchedRecord) VerifyInclusion() bool {
	return merkle.Verify(br.Root, br.Record.Encode(), br.Proof)
}

// batchKey is the state key anchoring one batch root.
func batchKey(root crypto.Digest) string { return "batch/" + root.String() }

// ReadBatchAnchor reports whether root was anchored by a committed batch
// transaction, and how many records it covered.
func ReadBatchAnchor(st contract.StateDB, root crypto.Digest) (int, bool) {
	b, ok := st.Get(batchKey(root))
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return 0, false
	}
	return n, true
}
