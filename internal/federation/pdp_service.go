package federation

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/metrics"
	"drams/internal/trace"
	"drams/internal/transport"
	"drams/internal/xacml"
)

// Message kinds for access-control evaluation calls.
const (
	kindEvaluate      = "ac.eval"
	kindEvaluateBatch = "ac.evalBatch"
)

// PDPProbe is the hook interface a DRAMS agent implements at the PDP side
// (infrastructure tenant).
type PDPProbe interface {
	// PDPRequestReceived observes req at PDP ingress, before evaluation, as
	// sent by the PEP of tenant origin, and returns the hook that ends the
	// PDP's side of the exchange. The service calls that hook exactly once,
	// on the goroutine serving the request: with the decision it is about
	// to send, or with ok=false when it sends none (no evaluator,
	// evaluation error). req comes from the service's pool and its strings,
	// ID and TraceID included, alias the call's payload: it is valid until
	// the hook returns; clone what you keep.
	PDPRequestReceived(req *xacml.Request, origin string) (done func(res xacml.Result, ok bool))
}

// PDPService exposes the federation PDP on the network. It wraps an
// xacml.Evaluator; the attack framework substitutes a compromised evaluator
// to model altered evaluation processes (threats of paper §I).
type PDPService struct {
	ep        transport.Endpoint
	evaluator atomic.Pointer[evalBox]
	probe     atomic.Pointer[probeBoxPDP]
	tracer    atomic.Pointer[trace.Tracer]

	evaluations metrics.Counter
	failures    metrics.Counter
}

type evalBox struct{ ev xacml.Evaluator }
type probeBoxPDP struct{ p PDPProbe }

// NewPDPService registers the PDP service on the network at PDPAddr.
func NewPDPService(net transport.Transport, evaluator xacml.Evaluator) (*PDPService, error) {
	ep, err := net.Register(PDPAddr)
	if err != nil {
		return nil, fmt.Errorf("federation: register PDP: %w", err)
	}
	s := &PDPService{ep: ep}
	s.evaluator.Store(&evalBox{ev: evaluator})
	ep.OnCall(kindEvaluate, s.handleEvaluate)
	ep.OnCall(kindEvaluateBatch, s.handleEvaluateBatch)
	return s, nil
}

// SetEvaluator swaps the decision engine (policy reload or attack
// injection).
func (s *PDPService) SetEvaluator(ev xacml.Evaluator) {
	s.evaluator.Store(&evalBox{ev: ev})
}

// SetProbe attaches the DRAMS agent hook.
func (s *PDPService) SetProbe(p PDPProbe) {
	s.probe.Store(&probeBoxPDP{p: p})
}

// SetTracer attaches (or clears, with nil) the end-to-end span recorder.
func (s *PDPService) SetTracer(t *trace.Tracer) { s.tracer.Store(t) }

// PDPStats is a snapshot of the service counters.
type PDPStats struct {
	Evaluations, Failures int64
}

// Stats snapshots the counters.
func (s *PDPService) Stats() PDPStats {
	return PDPStats{Evaluations: s.evaluations.Value(), Failures: s.failures.Value()}
}

// originTenant names the tenant whose PEP made a call from address from
// (PEPAddr). A caller at any other address is named by the address itself.
func originTenant(from string) string {
	if tenant, ok := strings.CutPrefix(from, PEPAddr("")); ok {
		return tenant
	}
	return from
}

// reqPool holds the requests evaluateOne decodes into, so that an ac.eval
// allocates little more than the reply it sends.
var reqPool = sync.Pool{New: func() any { return new(xacml.Request) }}

// evaluateOne runs the probe→evaluate→probe path for a single encoded
// request from origin's PEP; both the single and the batch handler go
// through it so every request produces identical probe logs regardless of
// how it arrived.
//
// The request is decoded into a pooled one whose strings alias payload, and
// goes back to the pool once the reply is encoded and the probe's hook has
// run. Nothing that sees it keeps it: the probe seals what it logs before
// its hook returns and clones the IDs it records (PDPProbe), an evaluator
// keeps nothing (xacml.Evaluator), the tracer keeps only a hash of the
// TraceID, and the payload is valid until the handler returns (transport
// package doc). The reply is appended to out.
func (s *PDPService) evaluateOne(origin string, payload, out []byte) ([]byte, error) {
	req := reqPool.Get().(*xacml.Request)
	defer reqPool.Put(req)
	if err := xacml.DecodeRequestInto(req, payload); err != nil {
		s.failures.Inc()
		return nil, fmt.Errorf("federation: PDP decode request: %w", err)
	}
	start := time.Now()
	done := func(xacml.Result, bool) {}
	if pb := s.probe.Load(); pb != nil && pb.p != nil {
		done = pb.p.PDPRequestReceived(req, origin)
	}
	box := s.evaluator.Load()
	if box == nil || box.ev == nil {
		s.failures.Inc()
		done(xacml.Result{}, false)
		return nil, errors.New("federation: PDP has no evaluator")
	}
	res, err := box.ev.Evaluate(req)
	if err != nil {
		s.failures.Inc()
		done(xacml.Result{}, false)
		return nil, fmt.Errorf("federation: PDP evaluate: %w", err)
	}
	s.evaluations.Inc()
	done(res, true)
	s.tracer.Load().Span(req.TraceID, trace.StagePDPEval, start, time.Since(start))
	return res.AppendEncoded(out), nil
}

// handleEvaluate answers an ac.eval with a reply in a buffer of replyBufs,
// which a PEP in this process hands back once it has enforced the reply.
// When the list is empty, as it stays for a PDP whose PEPs are in other
// processes, the reply gets a buffer of its exact size.
func (s *PDPService) handleEvaluate(from string, payload []byte) ([]byte, error) {
	return s.evaluateOne(originTenant(from), payload, replyBufs.get(0))
}

func (s *PDPService) handleEvaluateBatch(from string, payload []byte) ([]byte, error) {
	items, err := xacml.DecodeBatch(payload)
	if err != nil {
		s.failures.Inc()
		return nil, fmt.Errorf("federation: PDP: %w", err)
	}
	origin := originTenant(from)
	results, errs := make([][]byte, len(items)), make([]error, len(items))
	for i, raw := range items {
		results[i], errs[i] = s.evaluateOne(origin, raw, nil)
	}
	return xacml.EncodeBatchReply(results, errs), nil
}
