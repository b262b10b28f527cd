package core

import (
	"encoding/binary"
	"fmt"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/merkle"
	"drams/internal/wire"
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
// Encoded as
//
//	32B root | uvarint n (1…MaxLogBatch) | n × blob record
//
// where each record is in the record encoding (record.go) and is, as it
// lies, its Merkle leaf.
type LogBatch struct {
	Root    crypto.Digest
	Records []LogRecord
	// leaves are the records' encodings: what NewLogBatch encoded, or the
	// blobs of the decoded bytes. Nil when Records were set by hand.
	leaves [][]byte
}

// NewLogBatch builds a batch over the given records, encoding each once: the
// root is over those encodings, and Encode writes them.
func NewLogBatch(recs []LogRecord) (LogBatch, error) {
	if len(recs) == 0 {
		return LogBatch{}, fmt.Errorf("core: empty log batch")
	}
	if len(recs) > MaxLogBatch {
		return LogBatch{}, fmt.Errorf("core: batch of %d records exceeds limit %d", len(recs), MaxLogBatch)
	}
	size := 0
	for i := range recs {
		size += recs[i].encodedLen()
	}
	all := make([]byte, 0, size)
	leaves := make([][]byte, len(recs))
	for i := range recs {
		start := len(all)
		all = recs[i].appendTo(all)
		leaves[i] = all[start:len(all):len(all)]
	}
	return LogBatch{Root: merkle.RootOf(leaves), Records: recs, leaves: leaves}, nil
}

// LogCall is the logbatch call that anchors recs, a lone record as a batch
// of one: the one way a probe record reaches the chain.
func LogCall(recs ...LogRecord) (contract.Call, error) {
	lb, err := NewLogBatch(recs)
	if err != nil {
		return contract.Call{}, err
	}
	return contract.Call{Contract: ContractName, Method: MethodLogBatch, Args: lb.Encode()}, nil
}

// Encode serialises the batch.
func (lb LogBatch) Encode() []byte {
	leaves := lb.leaves
	if leaves == nil {
		leaves = make([][]byte, len(lb.Records))
		for i := range lb.Records {
			leaves[i] = lb.Records[i].Encode()
		}
	}
	size := crypto.DigestSize + wire.UvarintLen(uint64(len(leaves)))
	for _, l := range leaves {
		size += wire.StrLen(len(l))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, lb.Root[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(leaves)))
	for _, l := range leaves {
		buf = wire.AppendBlob(buf, l)
	}
	return buf
}

// DecodeLogBatch parses a batch, decoding each record once. The records and
// the leaves the contract hashes alias data.
func DecodeLogBatch(data []byte) (LogBatch, error) {
	br := readBatch(data)
	lb := LogBatch{Root: br.root}
	if br.rd.Err() == nil {
		lb.Records, lb.leaves = make([]LogRecord, br.n), make([][]byte, br.n)
	}
	for i := range lb.leaves {
		lb.leaves[i] = br.rd.Blob()
		rec, err := DecodeLogRecord(lb.leaves[i])
		if err != nil {
			br.rd.Fail(fmt.Errorf("record %d: %w", i, err))
			break
		}
		lb.Records[i] = rec
	}
	if err := br.rd.End(); err != nil {
		return LogBatch{}, fmt.Errorf("core: decode log batch: %w", err)
	}
	return lb, nil
}

// batchReader walks a batch's encoding: its root and record count, then the
// records' blobs, one per rd.Blob, aliasing the input. A copy of the reader
// reads the blobs again from where it was made, so the contract walks a
// batch twice without keeping its leaves.
type batchReader struct {
	rd   wire.Reader
	root crypto.Digest
	n    int
}

// readBatch reads a batch's root and record count; an error sticks in rd
// and leaves no records to read.
func readBatch(data []byte) batchReader {
	br := batchReader{rd: wire.NewReader(data)}
	copy(br.root[:], br.rd.Bytes(crypto.DigestSize))
	br.n = br.rd.Count(1 + minRecordLen)
	if br.rd.Err() == nil && (br.n == 0 || br.n > MaxLogBatch) {
		br.rd.Fail(fmt.Errorf("batch of %d records, want 1 to %d", br.n, MaxLogBatch))
		br.n = 0
	}
	return br
}

// LogStored is a decoded LogStored event payload: the record the contract
// stored and the membership proof tying it to the root in the logbatch
// transaction that anchored it. The proof is for a reader outside the node,
// who holds the block and checks it with VerifyInclusion; the node's own
// readers skip it, since their node's contract built it.
//
// The payload is a version byte (0x02) and then
//
//	32B root | uvarint index | proof | blob record
//	proof:     uvarint n | n × (u8 left | 32B sibling)
//
// with the record exactly the bytes the transaction carried.
type LogStored struct {
	Record LogRecord
	// Raw is the record's encoding as the payload carries it: the Merkle
	// leaf, hashed as it lies.
	Raw   []byte
	Root  crypto.Digest
	Index int
	Proof merkle.Proof
}

// storedVersion leads every LogStored payload. It is 0x02, the tag the
// batched form had when a bare form (0x01) existed beside it.
const storedVersion byte = 0x02

// storedPayload is the LogStored payload of the index-th record of a batch.
func storedPayload(root crypto.Digest, index int, proof merkle.Proof, rec []byte) []byte {
	buf := make([]byte, 0, 1+crypto.DigestSize+2*binary.MaxVarintLen16+
		len(proof.Steps)*(1+crypto.DigestSize)+wire.StrLen(len(rec)))
	buf = append(buf, storedVersion)
	buf = append(buf, root[:]...)
	buf = binary.AppendUvarint(buf, uint64(index))
	buf = binary.AppendUvarint(buf, uint64(len(proof.Steps)))
	for _, s := range proof.Steps {
		left := byte(0)
		if s.Left {
			left = 1
		}
		buf = append(buf, left)
		buf = append(buf, s.Sibling[:]...)
	}
	return wire.AppendBlob(buf, rec)
}

// Encode serialises the payload, carrying Raw (or, when Raw is nil, the
// record's encoding).
//
//lint:ignore deadcode ROADMAP 15's outsider reader checks an alert from the block log alone with it; core's tests pin it
func (ls LogStored) Encode() []byte {
	raw := ls.Raw
	if raw == nil {
		raw = ls.Record.Encode()
	}
	return storedPayload(ls.Root, ls.Index, ls.Proof, raw)
}

// DecodeLogStored parses a LogStored payload. The record's strings and
// payload, and Raw, alias it.
//
//lint:ignore deadcode ROADMAP 15's outsider reader checks an alert from the block log alone with it; core's tests pin it
func DecodeLogStored(payload []byte) (LogStored, error) {
	ls, err := cutLogStored(payload, true)
	if err == nil {
		ls.Record, err = DecodeLogRecord(ls.Raw)
	}
	if err != nil {
		return LogStored{}, fmt.Errorf("core: decode LogStored payload: %w", err)
	}
	return ls, nil
}

// cutLogStored reads a payload's envelope and leaves the record undecoded in
// Raw. Without withProof the proof is skipped unread.
func cutLogStored(payload []byte, withProof bool) (LogStored, error) {
	var ls LogStored
	rd := wire.NewReader(payload)
	if v := rd.U8(); v != storedVersion {
		rd.Fail(fmt.Errorf("unknown payload version 0x%02x", v))
	}
	copy(ls.Root[:], rd.Bytes(crypto.DigestSize))
	if i := rd.Uvarint(); i < MaxLogBatch {
		ls.Index = int(i)
	} else {
		rd.Fail(fmt.Errorf("leaf index %d beyond any batch", i))
	}
	ls.Proof.LeafIndex = ls.Index
	n := rd.Count(1 + crypto.DigestSize)
	if !withProof {
		rd.Bytes(n * (1 + crypto.DigestSize))
	} else if n > 0 {
		ls.Proof.Steps = make([]merkle.ProofStep, n)
		for i := range ls.Proof.Steps {
			switch left := rd.U8(); left {
			case 0:
			case 1:
				ls.Proof.Steps[i].Left = true
			default:
				rd.Fail(fmt.Errorf("proof step %d: side byte 0x%02x", i, left))
			}
			copy(ls.Proof.Steps[i].Sibling[:], rd.Bytes(crypto.DigestSize))
		}
	}
	ls.Raw = rd.Blob()
	return ls, rd.End()
}

// logStoredHeader reads the kind, request ID, trace ID and timestamp of the
// record a LogStored payload carries, and nothing else: it skips the proof,
// the digests and the sealed payload. The strings alias payload.
func logStoredHeader(payload []byte) (LogRecord, error) {
	ls, err := cutLogStored(payload, false)
	if err != nil {
		return LogRecord{}, err
	}
	rd := wire.NewReader(ls.Raw)
	var lr LogRecord
	lr.Kind, lr.ReqID, lr.TraceID = readRecordHeader(&rd)
	rd.Str() // tenant
	rd.Str() // origin
	rd.Str() // agent
	digests := 1
	if lr.Kind == KindPDPResponse || lr.Kind == KindPEPResponse {
		digests = 4
	}
	rd.Bytes(digests * crypto.DigestSize)
	rd.Str() // policy version
	lr.TimestampUnixNano = int64(rd.U64())
	return lr, rd.Err()
}

// VerifyInclusion checks the record's membership under Root: the carried
// record bytes, hashed as they lie, against the proof.
//
//lint:ignore deadcode ROADMAP 15's outsider reader checks an alert from the block log alone with it; core's tests pin it
func (ls LogStored) VerifyInclusion() bool {
	return merkle.Verify(ls.Root, ls.Raw, ls.Proof)
}
