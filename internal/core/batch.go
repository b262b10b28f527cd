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
