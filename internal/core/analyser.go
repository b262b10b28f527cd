package core

import (
	"errors"
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
// The authoritative policy is the policy contract's state on the
// analyser's own node: for each record it loads the version the PDP claims
// (or the active one, if that claim is not anchored) through
// LoadPolicyVersion. Nothing hands it a policy.
//
// Per Figure 1 it is "logically placed within the Infrastructural Tenant,
// but deployed within a different cloud section" — here: it runs against
// its own blockchain node and shares no code path with the PDP.
type Analyser struct {
	name   string
	node   *blockchain.Node
	sender *blockchain.Sender
	cipher *crypto.Cipher
	mac    crypto.MACKey

	// compiled holds recently used policies by digest (at most
	// compiledBound). Only the analyser goroutine touches it, and its
	// contexts' scratch.
	compiled map[crypto.Digest]*analysedPolicy
	opened   contextScratch

	tracer atomic.Pointer[trace.Tracer]

	verdicts   metrics.Counter
	mismatches metrics.Counter
	failures   metrics.Counter

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

type analysedPolicy struct {
	compiled *analysis.Compiled
	version  string
	digest   crypto.Digest
}

// AnalyserStats snapshots the analyser counters.
type AnalyserStats struct {
	VerdictsSubmitted int64
	MismatchesFound   int64
	// Failures counts pdp.response records the analyser could not judge: no
	// anchored policy to judge by, a context it could not decrypt, or a
	// verdict it could not submit. Each leaves its exchange without a
	// verdict.
	Failures int64
}

// NewAnalyser builds an analyser. identity must be the identity configured
// as MatchConfig.Analyser on the contract.
func NewAnalyser(name string, node *blockchain.Node, identity *crypto.Identity, key crypto.Key) (*Analyser, error) {
	cipher, err := crypto.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("core: analyser cipher: %w", err)
	}
	return &Analyser{
		name:     name,
		node:     node,
		sender:   blockchain.NewSender(node, identity),
		cipher:   cipher,
		mac:      crypto.NewMACKey(key),
		compiled: make(map[crypto.Digest]*analysedPolicy),
		stop:     make(chan struct{}),
	}, nil
}

// compiledBound caps the compiled policies the analyser keeps: enough for
// the versions in force around a few recent flips.
const compiledBound = 8

// cached returns the compiled policy for digest if it was loaded as version.
func (an *Analyser) cached(version string, digest crypto.Digest) *analysedPolicy {
	if ap := an.compiled[digest]; ap != nil && ap.version == version {
		return ap
	}
	return nil
}

// policyFor returns the compiled policy to re-derive rec's decision under:
// the version the PDP claims if the policy contract anchored it with the
// claimed digest, else the active version (a forged claim then makes the M5
// verdict mismatch, and M6 fires on its own). On the best chain a record
// always follows the anchor of the version its PDP decided under, so an
// error means nothing is anchored yet or the local replica was tampered
// with.
func (an *Analyser) policyFor(rec LogRecord) (*analysedPolicy, error) {
	if ap := an.cached(rec.PolicyVersion, rec.PolicyDigest); ap != nil {
		return ap, nil
	}
	var (
		ap     *analysedPolicy
		ps     *xacml.PolicySet
		digest crypto.Digest
		err    error
	)
	an.node.Chain().ReadState(PolicyContractName, func(st contract.StateDB) {
		version := rec.PolicyVersion
		digest = rec.PolicyDigest
		if anchored, ok := ReadPolicyDigest(st, version); !ok || anchored != digest {
			var active bool
			if version, digest, active = ReadActivePolicy(st); !active {
				err = errors.New("core: no active policy anchored")
				return
			}
		}
		if ap = an.cached(version, digest); ap == nil {
			ps, digest, err = LoadPolicyVersion(st, version)
		}
	})
	if ap != nil || err != nil {
		return ap, err
	}
	// Compiled outside ReadState: a large policy must not hold the chain's
	// read lock.
	ap = &analysedPolicy{compiled: analysis.Compile(ps), version: ps.Version, digest: digest}
	if len(an.compiled) >= compiledBound {
		for d := range an.compiled {
			delete(an.compiled, d)
			break
		}
	}
	an.compiled[digest] = ap
	return ap, nil
}

// SetTracer attaches (or clears, with nil) the end-to-end span recorder.
func (an *Analyser) SetTracer(t *trace.Tracer) { an.tracer.Store(t) }

// Start begins judging the pdp.response records of the blocks that join its
// node's best chain from now on, and publishing verdicts.
func (an *Analyser) Start() {
	from := an.node.Chain().Cursor()
	an.wg.Add(1)
	go func() {
		defer an.wg.Done()
		an.node.Follow(an.stop, from, func(blocks []blockchain.BlockEvents) {
			for _, b := range blocks {
				for _, e := range b.Events {
					if e.Contract == ContractName && e.Type == EventLogStored {
						an.handleLog(e.Payload)
					}
				}
			}
		})
	}()
}

// Stop halts the analyser.
func (an *Analyser) Stop() {
	an.stopOnce.Do(func() { close(an.stop) })
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

// extractRecord decodes the pdp.response record a LogStored event carries;
// the other three kinds are not the analyser's to check and are passed over
// on their leading byte (ok=false).
func (an *Analyser) extractRecord(payload []byte) (LogRecord, bool) {
	if len(payload) == 0 || payload[0] != KindPDPResponse.code() {
		return LogRecord{}, false
	}
	rec, err := DecodeLogRecord(payload)
	return rec, err == nil
}

func (an *Analyser) handleLog(payload []byte) {
	rec, ok := an.extractRecord(payload)
	if !ok {
		return
	}
	start := time.Now()
	ap, err := an.policyFor(rec)
	if err != nil {
		// Like an undecryptable record below: no verdict, so the
		// RequireVerdict timeout surfaces it as AlertVerdictMissing.
		an.failures.Inc()
		return
	}
	ec, err := openContext(an.cipher, rec.ReqID, rec.Payload, &an.opened)
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
		ExpectedTag:  DecisionTag(&an.mac, rec.ReqID, expected),
		PolicyDigest: ap.digest,
		Analyser:     an.name,
	}
	call := contract.Call{Contract: ContractName, Method: MethodVerdict, Args: v.Encode()}
	if _, err := an.sender.Send(call); err != nil {
		an.failures.Inc()
		return
	}
	an.verdicts.Inc()
	if tr := an.tracer.Load(); tr != nil {
		traceID := rec.TraceID
		if traceID == "" {
			traceID = rec.ReqID
		}
		tr.Span(traceID, trace.StageAnalyserVerify, start, time.Since(start))
	}
}
