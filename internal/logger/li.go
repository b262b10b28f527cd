// Package logger implements the Logger component of DRAMS (paper §II):
// probing agents that sense access-control activity at the four
// interception points, and the Logging Interface (LI) that encrypts
// observations, signs them with the tenant's component identity, submits
// them to the smart-contract blockchain, and surfaces security-alert events
// back to tenant operators.
package logger

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/blockchain"
	"drams/internal/clock"
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

// SubmitMode selects how the LI pushes logs to the chain.
type SubmitMode uint8

// Submission modes (E6 compares them).
const (
	// SubmitAsync enqueues and returns immediately; a worker pool submits
	// in the background. Access-control latency is unaffected.
	SubmitAsync SubmitMode = iota + 1
	// SubmitSync submits and waits for the transaction to be accepted
	// into the mempool (not mined).
	SubmitSync
	// SubmitConfirmed submits and waits for on-chain confirmation; the
	// strongest guarantee and the highest latency.
	SubmitConfirmed
)

const (
	// liWorkers is the number of async submission workers per LI.
	liWorkers = 2
	// liConfirmations is how deep SubmitConfirmed waits for its transaction.
	liConfirmations = 1
	// flushLinger is how long a worker holding a partial window waits for
	// more records before flushing. Bounded so batching never delays
	// detection noticeably.
	flushLinger = 2 * time.Millisecond
	// flushWindow caps how many probe records an async worker anchors under
	// one Merkle-rooted batch transaction (at most core.MaxLogBatch). A
	// window of N observations then costs one signed transaction instead of
	// N; the contract re-derives the root and per-record events carry
	// membership proofs, so anchoring stays as binding as individual
	// submissions. Only SubmitAsync batches; the synchronous modes trade
	// latency for per-record guarantees already.
	flushWindow = 16
)

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
	// Mode selects async/sync/confirmed submission.
	Mode SubmitMode
	// QueueSize bounds the async queue (default 1024).
	QueueSize int
	// Clock is the time source.
	Clock clock.Clock
}

// LIStats snapshot.
type LIStats struct {
	// Submitted counts records (a batch of N counts N).
	Submitted int64
	Failed    int64
	Dropped   int64
	// BatchesSubmitted counts Merkle-anchored batch transactions.
	BatchesSubmitted int64
	QueueLen         int
}

// LI is the Logging Interface: the bridge between probing agents and the
// blockchain.
type LI struct {
	cfg    LIConfig
	sender *blockchain.Sender
	cipher *crypto.Cipher
	clk    clock.Clock

	queue chan queued

	submitted metrics.Counter
	failed    metrics.Counter
	dropped   metrics.Counter
	batches   metrics.Counter
	// flushDepth records how many probe records each async flush anchored
	// under one batch transaction (1 = unbatched fallback).
	flushDepth *metrics.Histogram
	tracer     atomic.Pointer[trace.Tracer]

	alertMu       sync.Mutex
	alertHandlers []func(core.Alert)
	cancelSub     func()

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

type queued struct {
	call contract.Call
	// rec is set for probe log records, which are batchable; other calls
	// (verdicts) pass through unbatched.
	rec *core.LogRecord
	// enq is when the record joined the queue, so the flush-wait trace
	// span can report time spent waiting for the batch window.
	enq time.Time
}

// NewLI constructs a Logging Interface.
func NewLI(cfg LIConfig) (*LI, error) {
	if cfg.Node == nil || cfg.Identity == nil {
		return nil, errors.New("logger: LI needs a node and an identity")
	}
	if cfg.Mode == 0 {
		cfg.Mode = SubmitAsync
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	cipher, err := crypto.NewCipher(cfg.Key)
	if err != nil {
		return nil, fmt.Errorf("logger: LI cipher: %w", err)
	}
	li := &LI{
		cfg:        cfg,
		sender:     blockchain.NewSender(cfg.Node, cfg.Identity),
		cipher:     cipher,
		clk:        cfg.Clock,
		queue:      make(chan queued, cfg.QueueSize),
		flushDepth: metrics.NewHistogram(0),
		stop:       make(chan struct{}),
	}
	return li, nil
}

// Start launches async workers and the alert-event subscription.
func (li *LI) Start() {
	for i := 0; i < liWorkers; i++ {
		li.wg.Add(1)
		go li.worker()
	}
	events, cancel := li.cfg.Node.SubscribeEvents(0)
	li.cancelSub = cancel
	li.wg.Add(1)
	go func() {
		defer li.wg.Done()
		for {
			select {
			case <-li.stop:
				return
			case note, ok := <-events:
				if !ok {
					return
				}
				for _, e := range note.Events {
					if e.Contract == core.ContractName && e.Type == core.EventAlert {
						if a, err := core.DecodeAlert(e.Payload); err == nil {
							li.dispatchAlert(a)
						}
					}
				}
			}
		}
	}()
}

// Stop sends nothing more: in-flight submissions finish, and queued ones
// not yet sent are discarded and counted as Dropped.
func (li *LI) Stop() {
	li.stopOnce.Do(func() { close(li.stop) })
	if li.cancelSub != nil {
		li.cancelSub()
	}
	li.wg.Wait()
	for {
		select {
		case <-li.queue:
			li.dropped.Inc()
		default:
			return
		}
	}
}

// Name returns the LI's identity name.
func (li *LI) Name() string { return li.cfg.Name }

// Tenant returns the tenant the LI serves.
func (li *LI) Tenant() string { return li.cfg.Tenant }

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
	return core.DecisionTag(li.cfg.Key, reqID, d)
}

// Seal encrypts an exchange context for on-chain storage.
func (li *LI) Seal(ec core.EncryptedContext, reqID string) ([]byte, error) {
	return ec.Seal(li.cipher, reqID)
}

// Open decrypts a sealed context (forensics / authorised readers).
func (li *LI) Open(reqID string, payload []byte) (core.EncryptedContext, error) {
	return core.OpenContext(li.cipher, reqID, payload)
}

// Log submits a record (with its already-sealed payload) according to the
// configured mode. In async mode the record is queued for Merkle-batched
// anchoring; otherwise it becomes its own transaction.
func (li *LI) Log(ctx context.Context, rec core.LogRecord) error {
	if li.cfg.Mode == SubmitAsync {
		select {
		case <-li.stop:
			return ErrStopped
		default:
		}
		select {
		case li.queue <- queued{rec: &rec, enq: time.Now()}:
			return nil
		default:
			li.dropped.Inc()
			return ErrQueueFull
		}
	}
	call := contract.Call{Contract: core.ContractName, Method: core.MethodLog, Args: rec.Encode()}
	return li.submit(ctx, call)
}

// SubmitVerdict lets an analyser colocated with this LI publish through it.
func (li *LI) SubmitVerdict(ctx context.Context, v core.Verdict) error {
	call := contract.Call{Contract: core.ContractName, Method: core.MethodVerdict, Args: v.Encode()}
	return li.submit(ctx, call)
}

func (li *LI) submit(ctx context.Context, call contract.Call) error {
	select {
	case <-li.stop:
		return ErrStopped
	default:
	}
	switch li.cfg.Mode {
	case SubmitAsync:
		select {
		case li.queue <- queued{call: call}:
			return nil
		default:
			li.dropped.Inc()
			return ErrQueueFull
		}
	case SubmitSync:
		if _, err := li.sender.Send(call); err != nil {
			li.failed.Inc()
			return err
		}
		li.submitted.Inc()
		return nil
	case SubmitConfirmed:
		rec, err := li.sender.SendAndWait(ctx, call, liConfirmations)
		if err != nil {
			li.failed.Inc()
			return err
		}
		li.submitted.Inc()
		if !rec.OK {
			return fmt.Errorf("logger: tx failed on-chain: %s", rec.Err)
		}
		return nil
	default:
		return fmt.Errorf("logger: unknown submit mode %d", li.cfg.Mode)
	}
}

func (li *LI) worker() {
	defer li.wg.Done()
	for {
		select {
		case <-li.stop:
			return
		case q := <-li.queue:
			if q.rec != nil {
				li.flushWindow(q)
			} else {
				li.send(q.call, 1)
			}
		}
	}
}

// send submits one call with a single retry (transient mempool or network
// hiccups), counting n records on the outcome. Reports success.
func (li *LI) send(call contract.Call, n int64) bool {
	if _, err := li.sender.Send(call); err != nil {
		li.clk.Sleep(10 * time.Millisecond)
		if _, err2 := li.sender.Send(call); err2 != nil {
			li.failed.Add(n)
			return false
		}
	}
	li.submitted.Add(n)
	return true
}

// flushWindow gathers up to flushWindow records starting from first —
// draining whatever is already queued, then lingering briefly for
// stragglers — and anchors the window as one batch transaction. A lone
// record falls back to a plain log transaction, so light traffic keeps the
// unbatched wire shape. Non-record calls pulled while draining pass
// straight through.
func (li *LI) flushWindow(first queued) {
	recs := append(make([]core.LogRecord, 0, flushWindow), *first.rec)
	enqs := append(make([]time.Time, 0, flushWindow), first.enq)
	lingered := false
gather:
	for len(recs) < flushWindow {
		select {
		case q := <-li.queue:
			if q.rec != nil {
				recs = append(recs, *q.rec)
				enqs = append(enqs, q.enq)
			} else {
				li.send(q.call, 1)
			}
			continue
		default:
		}
		if lingered {
			break
		}
		lingered = true
		select {
		case <-li.stop:
			break gather // flush what we hold; in-flight work finishes
		case q := <-li.queue:
			if q.rec != nil {
				recs = append(recs, *q.rec)
				enqs = append(enqs, q.enq)
			} else {
				li.send(q.call, 1)
			}
		case <-li.clk.After(flushLinger):
		}
	}
	spanFlush := func() {
		li.flushDepth.Observe(float64(len(recs)))
		tr := li.tracer.Load()
		if tr == nil {
			return
		}
		now := time.Now()
		for i, rec := range recs {
			tr.Span(rec.TraceID, trace.StageLIFlushWait, enqs[i], now.Sub(enqs[i]))
		}
	}
	if len(recs) == 1 {
		if li.send(contract.Call{Contract: core.ContractName, Method: core.MethodLog, Args: recs[0].Encode()}, 1) {
			spanFlush()
		}
		return
	}
	lb, err := core.NewLogBatch(recs)
	if err != nil {
		li.failed.Add(int64(len(recs)))
		return
	}
	call := contract.Call{Contract: core.ContractName, Method: core.MethodLogBatch, Args: lb.Encode()}
	if li.send(call, int64(len(recs))) {
		li.batches.Inc()
		spanFlush()
	}
}

// OnAlert registers a handler for security alerts surfaced by the LI
// (invoked on the LI's event goroutine).
func (li *LI) OnAlert(fn func(core.Alert)) {
	li.alertMu.Lock()
	defer li.alertMu.Unlock()
	li.alertHandlers = append(li.alertHandlers, fn)
}

func (li *LI) dispatchAlert(a core.Alert) {
	li.alertMu.Lock()
	handlers := make([]func(core.Alert), len(li.alertHandlers))
	copy(handlers, li.alertHandlers)
	li.alertMu.Unlock()
	for _, fn := range handlers {
		fn(a)
	}
}
