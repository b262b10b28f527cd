package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/analysis"
	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/metrics"
	"drams/internal/trace"
	"drams/internal/xacml"
)

// Analyser is the standalone checking component of DRAMS (paper §II): it
// consumes pdp.response logs from the chain, decrypts the exchange context
// with the shared LI key, re-derives the expected decision from its own
// compiled representation of the authoritative policy, and publishes a
// keyed verdict the log-match contract compares against the PDP's decision
// (check M5).
//
// Per Figure 1 it is "logically placed within the Infrastructural Tenant,
// but deployed within a different cloud section" — here: it runs against
// its own blockchain node and shares no code path with the PDP.
type Analyser struct {
	name   string
	node   *blockchain.Node
	sender *blockchain.Sender
	cipher *crypto.Cipher
	key    crypto.Key

	compiled atomic.Pointer[analysedPolicy]

	// history keeps the compiled forms of recently loaded versions keyed
	// by policy digest, so exchanges whose logs land around a runtime
	// policy flip are verified under the policy the PDP actually decided
	// with (M6 separately polices that the claimed version was anchored
	// and active). Bounded FIFO.
	histMu    sync.Mutex
	history   map[crypto.Digest]*analysedPolicy
	histOrder []crypto.Digest

	tracer atomic.Pointer[trace.Tracer]

	verdicts   metrics.Counter
	mismatches metrics.Counter
	failures   metrics.Counter

	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	cancelSub func()
}

type analysedPolicy struct {
	compiled *analysis.Compiled
	digest   crypto.Digest
}

// AnalyserStats snapshots the analyser counters.
type AnalyserStats struct {
	VerdictsSubmitted int64
	MismatchesFound   int64
	Failures          int64
}

// NewAnalyser builds an analyser. identity must be the identity configured
// as MatchConfig.Analyser on the contract.
func NewAnalyser(name string, node *blockchain.Node, identity *crypto.Identity, key crypto.Key) (*Analyser, error) {
	cipher, err := crypto.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("core: analyser cipher: %w", err)
	}
	return &Analyser{
		name:    name,
		node:    node,
		sender:  blockchain.NewSender(node, identity),
		cipher:  cipher,
		key:     key,
		history: make(map[crypto.Digest]*analysedPolicy),
		stop:    make(chan struct{}),
	}, nil
}

// analyserHistoryBound caps how many compiled policy versions are retained
// for flip-window verification.
const analyserHistoryBound = 8

// LoadPolicy compiles the authoritative policy set the analyser will check
// decisions against. Previously loaded versions are retained (bounded) so
// in-flight exchanges from before a runtime policy flip are still verified
// under the policy they were decided with.
func (an *Analyser) LoadPolicy(ps *xacml.PolicySet) {
	cl := ps.Clone()
	ap := &analysedPolicy{compiled: analysis.Compile(cl), digest: cl.Digest()}
	an.compiled.Store(ap)
	an.histMu.Lock()
	if _, ok := an.history[ap.digest]; !ok {
		an.history[ap.digest] = ap
		an.histOrder = append(an.histOrder, ap.digest)
		for len(an.histOrder) > analyserHistoryBound {
			oldest := an.histOrder[0]
			an.histOrder = an.histOrder[1:]
			delete(an.history, oldest)
		}
	}
	an.histMu.Unlock()
}

// policyFor picks the compiled policy matching the digest a pdp.response
// claims, falling back to the current one for unknown digests (the forged
// digest then makes the M5 verdict mismatch, and M6 fires independently).
func (an *Analyser) policyFor(digest crypto.Digest) *analysedPolicy {
	an.histMu.Lock()
	ap := an.history[digest]
	an.histMu.Unlock()
	if ap != nil {
		return ap
	}
	return an.compiled.Load()
}

// VerifyPolicyAnchor checks that the loaded policy matches the on-chain
// anchored digest for the active version — the analyser's own supply-chain
// check before trusting a policy from the PRP.
func (an *Analyser) VerifyPolicyAnchor() error {
	ap := an.compiled.Load()
	if ap == nil {
		return fmt.Errorf("core: analyser has no policy loaded")
	}
	var (
		anchored   crypto.Digest
		haveAnchor bool
	)
	an.node.Chain().ReadState(PolicyContractName, func(st contract.StateDB) {
		_, anchored, haveAnchor = ReadActivePolicy(st)
	})
	if !haveAnchor {
		return fmt.Errorf("core: no active policy anchored on-chain")
	}
	if anchored != ap.digest {
		return fmt.Errorf("core: loaded policy digest %s differs from anchored %s",
			ap.digest.Short(), anchored.Short())
	}
	return nil
}

// SetTracer attaches (or clears, with nil) the end-to-end span recorder.
func (an *Analyser) SetTracer(t *trace.Tracer) { an.tracer.Store(t) }

// Start begins consuming pdp.response logs and publishing verdicts.
func (an *Analyser) Start() {
	sub := an.node.Subscribe(0)
	an.cancelSub = sub.Cancel
	an.wg.Add(1)
	go func() {
		defer an.wg.Done()
		for {
			select {
			case <-an.stop:
				return
			case note, ok := <-sub.C:
				if !ok {
					return
				}
				for _, e := range note.Events {
					if e.Contract == ContractName && e.Type == EventLogStored {
						an.handleLog(e.Payload)
					}
				}
			}
		}
	}()
}

// Stop halts the analyser.
func (an *Analyser) Stop() {
	an.stopOnce.Do(func() { close(an.stop) })
	if an.cancelSub != nil {
		an.cancelSub()
	}
	an.wg.Wait()
}

// Stats snapshots the counters.
func (an *Analyser) Stats() AnalyserStats {
	return AnalyserStats{
		VerdictsSubmitted: an.verdicts.Value(),
		MismatchesFound:   an.mismatches.Value(),
		Failures:          an.failures.Value(),
	}
}

// extractRecord recovers the pdp.response record carried by a LogStored
// event payload; the other three kinds are not the analyser's to check and
// are passed over as soon as the kind is read (ok=false). Batch-anchored
// records arrive as BatchedRecord envelopes; for a pdp.response the analyser
// insists on a valid Merkle membership proof AND an on-chain anchor for the
// claimed root before trusting it — an event stream cannot feed it
// observations the chain never committed to.
//
// Failures (drams_analyser_failures_total) therefore counts forged or
// unanchored envelopes of kind pdp.response only. A forged envelope of a
// kind the analyser ignores is no longer counted here; the contract never
// accepted it anyway, and nothing acts on it.
func (an *Analyser) extractRecord(payload []byte) (LogRecord, bool) {
	if br, err := DecodeBatchedRecord(payload); err == nil {
		if br.Record.Kind != KindPDPResponse {
			return LogRecord{}, false
		}
		if !br.VerifyInclusion() {
			an.failures.Inc()
			return LogRecord{}, false
		}
		anchored := false
		an.node.Chain().ReadState(ContractName, func(st contract.StateDB) {
			_, anchored = ReadBatchAnchor(st, br.Root)
		})
		if !anchored {
			an.failures.Inc()
			return LogRecord{}, false
		}
		return br.Record, true
	}
	rec, err := DecodeLogRecord(payload)
	if err != nil || rec.Kind != KindPDPResponse {
		return LogRecord{}, false
	}
	return rec, true
}

func (an *Analyser) handleLog(payload []byte) {
	rec, ok := an.extractRecord(payload)
	if !ok {
		return
	}
	start := time.Now()
	ap := an.policyFor(rec.PolicyDigest)
	if ap == nil {
		an.failures.Inc()
		return
	}
	ec, err := OpenContext(an.cipher, rec.ReqID, rec.Payload)
	if err != nil || ec.Request == nil {
		// Cannot decrypt (wrong key / tampered payload) or missing
		// context: a verdict cannot be produced; the RequireVerdict
		// timeout will surface this as AlertVerdictMissing.
		an.failures.Inc()
		return
	}
	expected := ap.compiled.ExpectedSimple(ec.Request)
	if ec.Result != nil && ec.Result.Decision.Simple() != expected {
		an.mismatches.Inc()
	}
	v := Verdict{
		ReqID:        rec.ReqID,
		ExpectedTag:  DecisionTag(an.key, rec.ReqID, expected),
		PolicyDigest: ap.digest,
		Analyser:     an.name,
	}
	call := contract.Call{Contract: ContractName, Method: MethodVerdict, Args: v.Encode()}
	if _, err := an.sender.Send(call); err != nil {
		an.failures.Inc()
		return
	}
	an.verdicts.Inc()
	traceID := rec.TraceID
	if traceID == "" {
		traceID = rec.ReqID
	}
	an.tracer.Load().Span(traceID, trace.StageAnalyserVerify, start, time.Since(start))
}

// ExpectedDecision exposes the analyser's re-derivation for direct use
// (experiments, examples).
func (an *Analyser) ExpectedDecision(r *xacml.Request) (xacml.Decision, error) {
	ap := an.compiled.Load()
	if ap == nil {
		return 0, fmt.Errorf("core: analyser has no policy loaded")
	}
	return ap.compiled.ExpectedSimple(r), nil
}
