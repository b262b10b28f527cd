// Package hybrid implements the hybrid database+blockchain store sketched
// in the paper's §III Log Size discussion (reference [9], "Blockchain-based
// database to ensure data integrity in cloud computing environments"):
// writes land in a local in-memory database at database speed,
// while Merkle roots of write batches are periodically anchored on the
// federation blockchain. Integrity audits replay the database against the
// anchored roots: any tampering of an anchored entry is detected at the
// next audit, and the anchoring period bounds the window of unprotected
// writes — the latency/integrity trade-off the paper describes.
package hybrid

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"drams/internal/blockchain"
	"drams/internal/clock"
	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/merkle"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("hybrid: store closed")

// anchorContract is the on-chain contract the store anchors its batches in.
const anchorContract = "anchor"

// Config parameterises a hybrid store.
type Config struct {
	// Stream names the anchor stream on-chain (unique per store).
	Stream string
	// BatchSize B: a batch is anchored when it holds this many entries.
	BatchSize int
	// FlushInterval T: a non-empty batch older than this is anchored even
	// if below BatchSize (0 disables time-based flushing).
	FlushInterval time.Duration
	// Sender submits anchor transactions (its identity must be on the
	// chain allowlist).
	Sender *blockchain.Sender
	// Node provides chain state access for audits.
	Node *blockchain.Node
	// WaitConfirmations > 0 makes each anchor wait for inclusion.
	WaitConfirmations uint64
	// Clock is the time source.
	Clock clock.Clock
}

// entryRecord is the append-only log row (the auditable unit).
type entryRecord struct {
	Key   string `json:"key"`
	Value []byte `json:"value"`
}

func (e entryRecord) leaf() []byte {
	b, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("hybrid: encode entry: %v", err))
	}
	return b
}

// Store is the hybrid store.
type Store struct {
	cfg Config
	db  db
	clk clock.Clock

	mu         sync.Mutex
	seq        uint64 // current (unanchored) batch sequence
	pending    []entryRecord
	batchBegan time.Time
	closed     bool

	anchorsSubmitted int64
	writes           int64
}

// Open creates a hybrid store.
func Open(cfg Config) (*Store, error) {
	if cfg.Stream == "" {
		return nil, errors.New("hybrid: Config.Stream required")
	}
	if cfg.Sender == nil || cfg.Node == nil {
		return nil, errors.New("hybrid: Config.Sender and Config.Node required")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	s := &Store{cfg: cfg, db: db{m: make(map[string][]byte)}, clk: cfg.Clock, seq: 1}
	s.batchBegan = s.clk.Now()
	return s, nil
}

// Stats reports write and anchoring counters.
type Stats struct {
	Writes           int64
	AnchorsSubmitted int64
	PendingEntries   int
	CurrentBatch     uint64
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Writes:           s.writes,
		AnchorsSubmitted: s.anchorsSubmitted,
		PendingEntries:   len(s.pending),
		CurrentBatch:     s.seq,
	}
}

func logKey(seq uint64, idx int) string { return fmt.Sprintf("log/%016x/%08x", seq, idx) }
func dataKey(key string) string         { return "data/" + key }

// db is the store's database: each key's current value under data/<key>
// and the append-only write log under log/<seq>/<idx>, in memory.
type db struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// put writes both rows of one write together.
func (d *db) put(data, log string, value, entry []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[data], d.m[log] = value, entry
}

func (d *db) get(key string) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, ok := d.m[key]
	if !ok {
		return nil, fmt.Errorf("hybrid: %q not found", key)
	}
	return append([]byte(nil), v...), nil
}

// tamper rewrites an existing row behind the store's back, as an attacker
// with database access would. It reports whether the row existed.
func (d *db) tamper(key string, value []byte) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.m[key]; !ok {
		return false
	}
	d.m[key] = append([]byte(nil), value...)
	return true
}

// Put writes a key/value pair: it lands in the database at once and joins
// the current batch for the next anchor.
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	rec := entryRecord{Key: key, Value: append([]byte(nil), value...)}
	s.db.put(dataKey(key), logKey(s.seq, len(s.pending)), rec.Value, rec.leaf())
	s.pending = append(s.pending, rec)
	s.writes++
	due := len(s.pending) >= s.cfg.BatchSize ||
		(s.cfg.FlushInterval > 0 && s.clk.Since(s.batchBegan) >= s.cfg.FlushInterval)
	var flushErr error
	if due {
		flushErr = s.flushLocked(ctx)
	}
	s.mu.Unlock()
	return flushErr
}

// Get reads the current value for a key.
func (s *Store) Get(key string) ([]byte, error) {
	return s.db.get(dataKey(key))
}

// Flush anchors the current partial batch (no-op when empty).
func (s *Store) Flush(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked(ctx)
}

func (s *Store) flushLocked(ctx context.Context) error {
	if len(s.pending) == 0 {
		return nil
	}
	leaves := make([][]byte, len(s.pending))
	for i, rec := range s.pending {
		leaves[i] = rec.leaf()
	}
	tree, err := merkle.Build(leaves)
	if err != nil {
		return fmt.Errorf("hybrid: build batch tree: %w", err)
	}
	args, err := json.Marshal(contract.AnchorArgs{
		Stream: s.cfg.Stream,
		Seq:    s.seq,
		Root:   tree.Root(),
		Count:  len(s.pending),
	})
	if err != nil {
		return fmt.Errorf("hybrid: encode anchor: %w", err)
	}
	call := contract.Call{Contract: anchorContract, Method: "anchor", Args: args}
	if s.cfg.WaitConfirmations > 0 {
		if _, err := s.cfg.Sender.SendAndWait(ctx, call, s.cfg.WaitConfirmations); err != nil {
			return fmt.Errorf("hybrid: anchor batch %d: %w", s.seq, err)
		}
	} else {
		if _, err := s.cfg.Sender.Send(call); err != nil {
			return fmt.Errorf("hybrid: anchor batch %d: %w", s.seq, err)
		}
	}
	s.anchorsSubmitted++
	s.seq++
	s.pending = s.pending[:0]
	s.batchBegan = s.clk.Now()
	return nil
}

// Close flushes the current batch and closes the store.
func (s *Store) Close(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.flushLocked(ctx)
	s.closed = true
	return err
}

// Corruption is one integrity violation found by an audit.
type Corruption struct {
	Batch  uint64 `json:"batch"`
	Index  int    `json:"index,omitempty"`
	Key    string `json:"key,omitempty"`
	Reason string `json:"reason"`
}

// AuditReport summarises an integrity audit.
type AuditReport struct {
	BatchesChecked int
	EntriesChecked int
	PendingEntries int // written but not yet anchored (unprotected window)
	Corruptions    []Corruption
}

// Clean reports whether the audit found no corruption.
func (r AuditReport) Clean() bool { return len(r.Corruptions) == 0 }

// Audit verifies the database against every on-chain anchor of this
// store's stream: each anchored batch's entries are re-read from the log,
// their Merkle root recomputed and compared, and each key's current value
// checked against its latest logged write.
func (s *Store) Audit() AuditReport {
	var rep AuditReport
	s.mu.Lock()
	rep.PendingEntries = len(s.pending)
	s.mu.Unlock()

	var anchors []contract.AnchorRecord
	s.cfg.Node.Chain().ReadState(anchorContract, func(st contract.StateDB) {
		anchors = contract.ListAnchors(st, s.cfg.Stream)
	})

	latest := make(map[string][]byte) // key → last anchored value
	for seq := uint64(1); int(seq) <= len(anchors); seq++ {
		anchor := anchors[seq-1]
		rep.BatchesChecked++
		leaves := make([][]byte, 0, anchor.Count)
		broken := false
		for idx := 0; idx < anchor.Count; idx++ {
			raw, err := s.db.get(logKey(seq, idx))
			if err != nil {
				rep.Corruptions = append(rep.Corruptions, Corruption{
					Batch: seq, Index: idx, Reason: "log entry missing",
				})
				broken = true
				continue
			}
			leaves = append(leaves, raw)
			var rec entryRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				rep.Corruptions = append(rep.Corruptions, Corruption{
					Batch: seq, Index: idx, Reason: "log entry unparsable",
				})
				broken = true
				continue
			}
			latest[rec.Key] = rec.Value
			rep.EntriesChecked++
		}
		if broken {
			continue
		}
		root := merkle.RootOf(leaves)
		if root != anchor.Root {
			rep.Corruptions = append(rep.Corruptions, Corruption{
				Batch:  seq,
				Reason: fmt.Sprintf("batch root %s does not match anchored %s", root.Short(), anchor.Root.Short()),
			})
		}
	}
	// Current values must match the last anchored write for each key
	// (pending writes are checked against the in-memory batch below).
	s.mu.Lock()
	for _, rec := range s.pending {
		latest[rec.Key] = rec.Value
	}
	s.mu.Unlock()
	for key, want := range latest {
		got, err := s.db.get(dataKey(key))
		if err != nil {
			rep.Corruptions = append(rep.Corruptions, Corruption{Key: key, Reason: "current value missing"})
			continue
		}
		if string(got) != string(want) {
			rep.Corruptions = append(rep.Corruptions, Corruption{Key: key, Reason: "current value differs from logged write"})
		}
	}
	return rep
}

// ProveEntry produces a Merkle membership proof for entry idx of an
// anchored batch, verifiable against the on-chain root by a third party.
//
//lint:ignore deadcode examples/hybridstore proves an entry to a third party: the database+blockchain hybrid of paper §III Log Size
func (s *Store) ProveEntry(seq uint64, idx int) (merkle.Proof, crypto.Digest, error) {
	var anchor contract.AnchorRecord
	found := false
	s.cfg.Node.Chain().ReadState(anchorContract, func(st contract.StateDB) {
		anchor, found = contract.ReadAnchor(st, s.cfg.Stream, seq)
	})
	if !found {
		return merkle.Proof{}, crypto.Digest{}, fmt.Errorf("hybrid: batch %d not anchored", seq)
	}
	leaves := make([][]byte, anchor.Count)
	for i := 0; i < anchor.Count; i++ {
		raw, err := s.db.get(logKey(seq, i))
		if err != nil {
			return merkle.Proof{}, crypto.Digest{}, fmt.Errorf("hybrid: batch %d entry %d: %w", seq, i, err)
		}
		leaves[i] = raw
	}
	tree, err := merkle.Build(leaves)
	if err != nil {
		return merkle.Proof{}, crypto.Digest{}, err
	}
	proof, err := tree.Prove(idx)
	if err != nil {
		return merkle.Proof{}, crypto.Digest{}, err
	}
	return proof, anchor.Root, nil
}

// EntryBytes returns the raw log bytes for (seq, idx) so a verifier can
// check a proof.
//
//lint:ignore deadcode examples/hybridstore proves an entry to a third party: the database+blockchain hybrid of paper §III Log Size
func (s *Store) EntryBytes(seq uint64, idx int) ([]byte, error) {
	return s.db.get(logKey(seq, idx))
}

// TamperLogEntry corrupts a logged entry directly in the database,
// bypassing the API — the attacker model for E4/E5 experiments.
func (s *Store) TamperLogEntry(seq uint64, idx int, newValue []byte) bool {
	rec := entryRecord{Key: fmt.Sprintf("tampered-%d-%d", seq, idx), Value: newValue}
	return s.db.tamper(logKey(seq, idx), rec.leaf())
}
