// Package logger implements the Logger component of DRAMS (paper §II):
// probing agents that sense access-control activity at the four
// interception points, and the Logging Interface (LI) that encrypts
// observations, signs them with the tenant's component identity, submits
// them to the smart-contract blockchain. Alerts reach tenant operators
// through the Monitor, not the LI.
package logger

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/metrics"
	"drams/internal/trace"
	"drams/internal/xacml"
)

// ErrQueueFull is returned by async submission when the LI's queue is full.
var ErrQueueFull = errors.New("logger: submission queue full")

// ErrStopped is returned after the LI is stopped.
var ErrStopped = errors.New("logger: LI stopped")

// SubmitMode names the LI's one way of logging: records are queued and the
// flusher anchors them in Merkle-rooted batches beside the access-control
// flow. Only benchmark/layers/replay.go still sets it.
type SubmitMode uint8

// SubmitAsync enqueues and returns immediately; the LI's flusher anchors in
// the background. Access-control latency is unaffected.
const SubmitAsync SubmitMode = 1

// flushWindow is the number of probe records at which the flusher stops
// gathering and anchors what it holds under one Merkle-rooted batch
// transaction (far below core.MaxLogBatch; an entry is never split, so a
// window holds at most one record more). A window of N observations then
// costs one signed transaction instead of N; the contract re-derives the
// root over the records and refuses a mismatch, so anchoring stays as
// binding as individual submissions.
const flushWindow = 16

// LIConfig configures a Logging Interface.
type LIConfig struct {
	// Name is the LI's component-identity name (on the chain allowlist).
	Name string
	// Tenant is the tenant the LI serves.
	Tenant string
	// Node is the blockchain node the LI talks to (typically the node of
	// its own cloud).
	Node *blockchain.Node
	// Identity signs the LI's transactions.
	Identity *crypto.Identity
	// Key is the shared symmetric key K (paper §II); in a hardened
	// deployment it is unsealed from the tenant's TPM.
	Key crypto.Key
	// Mode is 0 or SubmitAsync, the only mode; only
	// benchmark/layers/replay.go sets it.
	Mode SubmitMode
	// QueueSize bounds the async queue (default 1024).
	QueueSize int
}

// LIStats snapshot. Submitted, Failed and Dropped count records (a batch of
// N counts N).
type LIStats struct {
	Submitted int64
	Failed    int64
	// Dropped counts records refused at a full queue, or still queued (or
	// handed over) once the LI had stopped.
	Dropped int64
	// BatchesSubmitted counts the LI's transactions: every one is a
	// Merkle-anchored batch, a lone record a batch of one.
	BatchesSubmitted int64
	QueueLen         int
}

// LI is the Logging Interface: the bridge between probing agents and the
// blockchain.
type LI struct {
	cfg    LIConfig
	sender txSender
	cipher *crypto.Cipher
	mac    crypto.MACKey // K, prepared once for the decision tags

	queue chan queued

	submitted metrics.Counter
	failed    metrics.Counter
	dropped   metrics.Counter
	batches   metrics.Counter
	// flushDepth records how many probe records each async flush anchored
	// under one transaction (1 = a lone record, unbatched).
	flushDepth *metrics.Histogram
	tracer     atomic.Pointer[trace.Tracer]

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// txSender is what the LI uses of blockchain.Sender; a test wraps it to hold
// a submission in flight.
type txSender interface {
	Send(call contract.Call) (crypto.Digest, error)
}

// queued is one entry of the async queue: the probe records handed over in
// one call — both observations of an exchange at one interception side, or a
// lone one — anchored together.
type queued struct {
	recs []core.LogRecord
	// enq is when the entry joined the queue, so the flush-wait trace span
	// can report how long its records waited for the flusher.
	enq time.Time
}

// NewLI constructs a Logging Interface.
func NewLI(cfg LIConfig) (*LI, error) {
	if cfg.Node == nil || cfg.Identity == nil {
		return nil, errors.New("logger: LI needs a node and an identity")
	}
	if cfg.Mode > SubmitAsync {
		return nil, fmt.Errorf("logger: unknown submit mode %d", cfg.Mode)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	cipher, err := crypto.NewCipher(cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("logger: LI cipher: %w", err)
	}
	li := &LI{
		cfg:        cfg,
		sender:     blockchain.NewSender(cfg.Node, cfg.Identity),
		cipher:     cipher,
		mac:        crypto.NewMACKey(cfg.Key),
		queue:      make(chan queued, cfg.QueueSize),
		flushDepth: metrics.NewHistogram(),
		stop:       make(chan struct{}),
	}
	return li, nil
}

// Start launches the flusher.
func (li *LI) Start() {
	li.wg.Add(1)
	go li.flusher()
}

// Stop sends nothing more: the submission in flight finishes, and records
// still queued — or handed over later — are discarded and counted as Dropped.
func (li *LI) Stop() {
	li.stopOnce.Do(func() { close(li.stop) })
	li.wg.Wait()
	li.dropQueued()
}

// dropQueued empties the queue of a stopped LI into the Dropped count.
func (li *LI) dropQueued() {
	for {
		select {
		case q := <-li.queue:
			li.dropped.Add(int64(len(q.recs)))
		default:
			return
		}
	}
}

// Name returns the LI's identity name.
func (li *LI) Name() string { return li.cfg.Name }

// Stats snapshots the counters.
func (li *LI) Stats() LIStats {
	return LIStats{
		Submitted:        li.submitted.Value(),
		Failed:           li.failed.Value(),
		Dropped:          li.dropped.Value(),
		BatchesSubmitted: li.batches.Value(),
		QueueLen:         len(li.queue),
	}
}

// SetTracer attaches (or clears, with nil) the end-to-end span recorder:
// every batched record gets a li.flush_wait span from enqueue to batch
// submission.
func (li *LI) SetTracer(t *trace.Tracer) { li.tracer.Store(t) }

// FlushDepth exports the distribution of records per anchored flush.
func (li *LI) FlushDepth() metrics.HistExport { return li.flushDepth.Export() }

// DecisionTag computes the keyed decision commitment on behalf of agents
// (the LI exposes the symmetric-key functions, paper §II).
func (li *LI) DecisionTag(reqID string, d xacml.Decision) crypto.Digest {
	return core.DecisionTag(&li.mac, reqID, d)
}

// Seal encrypts an exchange context for on-chain storage.
func (li *LI) Seal(ec core.EncryptedContext, reqID string) ([]byte, error) {
	return ec.Seal(li.cipher, reqID)
}

// Open decrypts a sealed context (forensics / authorised readers).
func (li *LI) Open(reqID string, payload []byte) (core.EncryptedContext, error) {
	return core.OpenContext(li.cipher, reqID, payload)
}

// enqueue hands recs to the flusher as one entry, never blocking: a full
// queue refuses them, a stopped LI discards them, and both count them as
// Dropped. The LI keeps recs until they are anchored.
func (li *LI) enqueue(recs []core.LogRecord) error {
	select {
	case <-li.stop:
		li.dropped.Add(int64(len(recs)))
		return ErrStopped
	default:
	}
	select {
	case li.queue <- queued{recs: recs, enq: time.Now()}:
	default:
		li.dropped.Add(int64(len(recs)))
		return ErrQueueFull
	}
	select {
	case <-li.stop:
		// Stop may have emptied the queue before this entry joined it.
		li.dropQueued()
	default:
	}
	return nil
}

// flusher anchors whatever is queued whenever it is free: one entry on a
// quiet LI, everything that queued up behind the previous submission on a
// busy one. The batch grows with load because a Send was in flight, never
// because a timer ran.
func (li *LI) flusher() {
	defer li.wg.Done()
	recs := make([]core.LogRecord, 0, flushWindow+1)
	enqs := make([]time.Time, 0, flushWindow+1)
	for {
		var q queued
		select {
		case <-li.stop:
			return
		case q = <-li.queue:
		}
		recs, enqs = recs[:0], enqs[:0]
	gather:
		for {
			for _, rec := range q.recs {
				recs, enqs = append(recs, rec), append(enqs, q.enq)
			}
			if len(recs) >= flushWindow {
				break
			}
			select {
			case q = <-li.queue:
			default:
				break gather
			}
		}
		li.anchor(recs, enqs)
	}
}

// anchor submits recs as one Merkle-rooted batch transaction (a lone record
// as a batch of one) and closes the li.flush_wait span of each (enqs[i] is
// when recs[i] was queued).
func (li *LI) anchor(recs []core.LogRecord, enqs []time.Time) {
	n := int64(len(recs))
	call, err := core.LogCall(recs...)
	if err != nil {
		li.failed.Add(n)
		return
	}
	// One retry covers a transient mempool or network hiccup.
	if _, err := li.sender.Send(call); err != nil {
		time.Sleep(10 * time.Millisecond)
		if _, err := li.sender.Send(call); err != nil {
			li.failed.Add(n)
			return
		}
	}
	li.submitted.Add(n)
	li.batches.Inc()
	li.flushDepth.Observe(float64(n))
	if tr := li.tracer.Load(); tr != nil {
		now := time.Now()
		for i, rec := range recs {
			tr.Span(rec.TraceID, trace.StageLIFlushWait, enqs[i], now.Sub(enqs[i]))
		}
	}
}
