package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/idgen"
	"drams/internal/metrics"
	"drams/internal/trace"
	"drams/internal/transport"
	"drams/internal/xacml"
)

// ErrRequestDropped is returned to the application when the exchange was
// lost (either injected suppression or network failure).
var ErrRequestDropped = errors.New("federation: access request dropped")

// PEPProbe is the hook interface a DRAMS agent implements at a tenant edge.
type PEPProbe interface {
	// PEPRequestSent observes req as the PEP sends it and returns the hook
	// that ends the edge's side of the exchange. The PEP calls that hook
	// exactly once, on the goroutine serving the exchange: with the response
	// as it arrived and the effect enforced, or with ok=false on every path
	// that ends without a response (suppression, call error or timeout, an
	// undecodable or failed reply). What the probe keeps between the two
	// calls therefore lives no longer than the exchange.
	PEPRequestSent(req *xacml.Request) (done func(res xacml.Result, enforced xacml.Decision, ok bool))
}

// Tamper models a compromised data path around one PEP (paper §I threat
// model: "access requests or responses are modified ... by a malicious user
// or software"). All fields are optional.
type Tamper struct {
	// Request rewrites the request after the probe observed it — i.e. on
	// the wire between PEP egress and PDP ingress (attack A1).
	Request func(req *xacml.Request) *xacml.Request
	// Response rewrites the PDP result before the PEP-side probe observes
	// arrival — i.e. on the wire between PDP egress and PEP ingress (A2).
	Response func(res xacml.Result) xacml.Result
	// Enforce overrides the effect the PEP actually enforces (A3).
	Enforce func(received xacml.Decision) xacml.Decision
	// DropRequest suppresses the request after the probe logged it (A6).
	DropRequest bool
	// DropResponse suppresses the response before the PEP-side probe
	// could log it (A7): the exchange never completes at the edge.
	DropResponse bool
	// Batch manipulates the encoded item pipeline of DecideBatch after
	// every request was probed and individually tampered — the
	// batch-boundary ordering surface: reorder, duplicate or drop wire
	// items without any edge probe noticing. The PDP answers positionally,
	// so a reordered batch misaligns decisions with requests (caught by
	// M2), and a shrunk batch fails the whole pipeline (caught by M3).
	// Single-request Decide calls are unaffected.
	Batch func(items [][]byte) [][]byte
}

// Enforcement is what the PEP hands back to the application.
type Enforcement struct {
	Decision    xacml.Decision     `json:"decision"`
	Obligations []xacml.Obligation `json:"obligations,omitempty"`
	// PolicyVersion identifies the policy-set version the PDP decided
	// under — the application-visible trace of a runtime policy rollout
	// ("" when the exchange failed before a decision arrived).
	PolicyVersion string `json:"policyVersion,omitempty"`
}

// Permitted reports whether access is granted (XACML: only an explicit
// Permit grants; everything else is treated as not granted by a
// deny-biased PEP).
func (e Enforcement) Permitted() bool { return e.Decision == xacml.Permit }

// PEPService is the tenant-edge Policy Enforcement Point.
type PEPService struct {
	tenant  string
	ep      transport.Endpoint
	timeout time.Duration

	probe  atomic.Pointer[probeBoxPEP]
	tamper atomic.Pointer[Tamper]
	tracer atomic.Pointer[trace.Tracer]

	requests metrics.Counter
	permits  metrics.Counter
	denies   metrics.Counter
	failures metrics.Counter
}

// traceIDs mints fallback trace identifiers for requests that arrive at a
// PEP without a correlation ID (shared across PEPs; trace IDs only need
// uniqueness, not reproducibility).
var traceIDs = sync.OnceValue(idgen.New)

// ensureTraceID stamps the request with its end-to-end trace identifier:
// the correlation ID when present (so Deployment.Trace(reqID) works with
// the IDs callers already hold), a fresh one otherwise. Requests arriving
// with a TraceID (e.g. relayed from another edge) keep it.
func ensureTraceID(req *xacml.Request) string {
	if req.TraceID == "" {
		if req.ID != "" {
			req.TraceID = req.ID
		} else {
			req.TraceID = "t-" + traceIDs().Next().String()
		}
	}
	return req.TraceID
}

type probeBoxPEP struct{ p PEPProbe }

// NewPEPService registers a PEP for a tenant on the network.
func NewPEPService(net transport.Transport, tenant string, timeout time.Duration) (*PEPService, error) {
	ep, err := net.Register(PEPAddr(tenant))
	if err != nil {
		return nil, fmt.Errorf("federation: register PEP %q: %w", tenant, err)
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &PEPService{tenant: tenant, ep: ep, timeout: timeout}, nil
}

// SetProbe attaches the DRAMS agent hook.
func (s *PEPService) SetProbe(p PEPProbe) { s.probe.Store(&probeBoxPEP{p: p}) }

// observe shows req to the probe as the application/PEP formed it and
// returns the hook that ends the side; without a probe both do nothing.
func (s *PEPService) observe(req *xacml.Request) func(res xacml.Result, enforced xacml.Decision, ok bool) {
	if pb := s.probe.Load(); pb != nil && pb.p != nil {
		return pb.p.PEPRequestSent(req)
	}
	return func(xacml.Result, xacml.Decision, bool) {}
}

// SetTracer attaches (or clears, with nil) the end-to-end span recorder.
func (s *PEPService) SetTracer(t *trace.Tracer) { s.tracer.Store(t) }

// SetTamper installs (or clears, with nil) attack injection.
func (s *PEPService) SetTamper(t *Tamper) {
	if t == nil {
		t = &Tamper{}
	}
	s.tamper.Store(t)
}

// PEPStats snapshot.
type PEPStats struct {
	Requests, Permits, Denies, Failures int64
}

// Stats snapshots the counters.
func (s *PEPService) Stats() PEPStats {
	return PEPStats{
		Requests: s.requests.Value(),
		Permits:  s.permits.Value(),
		Denies:   s.denies.Value(),
		Failures: s.failures.Value(),
	}
}

// admit counts a request, stamps its trace ID and encodes it for the wire,
// refusing in the same pass one carrying a value outside what a request may
// carry (xacml.ErrUnsupportedValue). A refused request never reaches the
// probe or the PDP: nothing is decided, so nothing goes unmonitored.
func (s *PEPService) admit(req *xacml.Request) ([]byte, error) {
	s.requests.Inc()
	ensureTraceID(req)
	payload, err := req.EncodeChecked()
	if err != nil {
		s.failures.Inc()
		return nil, fmt.Errorf("federation: PEP %s: %w", s.tenant, err)
	}
	return payload, nil
}

// Decide runs the full PEP flow for an application request: probe, forward
// to the PDP, receive, probe, enforce. It returns what was enforced.
func (s *PEPService) Decide(ctx context.Context, req *xacml.Request) (Enforcement, error) {
	start := time.Now()
	payload, err := s.admit(req)
	if err != nil {
		return Enforcement{Decision: xacml.IndeterminateDP}, err
	}
	tam := s.tamper.Load()

	done := s.observe(req)
	// fail ends an exchange that produced no response the edge could observe.
	fail := func(err error) (Enforcement, error) {
		s.failures.Inc()
		done(xacml.Result{}, 0, false)
		return Enforcement{Decision: xacml.IndeterminateDP}, err
	}

	// In-transit tampering / suppression happens after the probe.
	if tam != nil {
		if tam.DropRequest {
			return fail(ErrRequestDropped)
		}
		if tam.Request != nil {
			payload = tam.Request(req.Clone()).Encode()
		}
	}

	callCtx, cancel := context.WithTimeout(ctx, s.timeout)
	defer cancel()
	raw, err := s.ep.Call(callCtx, PDPAddr, kindEvaluate, payload)
	if err != nil {
		return fail(fmt.Errorf("federation: PEP %s → PDP: %w", s.tenant, err))
	}
	res, err := xacml.DecodeResult(raw)
	if err != nil {
		return fail(err)
	}

	// Response-side tampering/suppression happens before the probe sees
	// the arrival (the probe observes the tenant edge).
	if tam != nil {
		if tam.DropResponse {
			return fail(ErrRequestDropped)
		}
		if tam.Response != nil {
			res = tam.Response(res)
		}
	}

	enforced := res.Decision
	if tam != nil && tam.Enforce != nil {
		enforced = tam.Enforce(res.Decision)
	}

	done(res, enforced, true)
	s.tracer.Load().Span(req.TraceID, trace.StagePEPDecide, start, time.Since(start))

	if enforced == xacml.Permit {
		s.permits.Inc()
	} else {
		s.denies.Inc()
	}
	return Enforcement{Decision: enforced, Obligations: res.Obligations, PolicyVersion: res.PolicyVersion}, nil
}

// DecideBatch runs the full PEP flow for a pipeline of application
// requests: every request is probed, tampered and counted exactly as Decide
// would, but all requests share a single network round-trip to the PDP.
//
// The returned slice is positionally aligned with reqs and always has
// len(reqs) entries; an entry whose request failed carries IndeterminateDP.
// The error is nil only when every request succeeded — per-item failures
// are combined with errors.Join, so errors.Is(err, ErrRequestDropped) still
// works across the batch boundary.
func (s *PEPService) DecideBatch(ctx context.Context, reqs []*xacml.Request) ([]Enforcement, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]Enforcement, len(reqs))
	errs := make([]error, len(reqs))
	for i := range out {
		out[i] = Enforcement{Decision: xacml.IndeterminateDP}
	}
	done := make([]func(xacml.Result, xacml.Decision, bool), len(reqs))
	failOne := func(i int, err error) {
		s.failures.Inc()
		done[i](xacml.Result{}, 0, false)
		errs[i] = err
	}
	// sent[k] is the request behind wire item k; a request admit refused is
	// neither probed nor sent.
	sent := make([]int, 0, len(reqs))
	failAll := func(err error) ([]Enforcement, error) {
		for _, i := range sent {
			failOne(i, err)
		}
		return out, errors.Join(errs...)
	}
	tam := s.tamper.Load()
	start := time.Now()

	wire := make([][]byte, 0, len(reqs))
	for i, req := range reqs {
		payload, err := s.admit(req)
		if err != nil {
			errs[i] = err
			continue
		}
		done[i] = s.observe(req)
		if tam != nil && tam.Request != nil {
			payload = tam.Request(req.Clone()).Encode()
		}
		wire = append(wire, payload)
		sent = append(sent, i)
	}
	if len(sent) == 0 {
		return out, errors.Join(errs...)
	}
	// In-transit suppression hits the shared pipeline after the probes
	// observed every item, so each one fails exactly as Decide would.
	if tam != nil && tam.DropRequest {
		return failAll(ErrRequestDropped)
	}
	// Batch-boundary manipulation happens on the wire encoding, after the
	// probes observed every item in its honest order.
	if tam != nil && tam.Batch != nil {
		wire = tam.Batch(wire)
	}

	callCtx, cancel := context.WithTimeout(ctx, s.timeout)
	defer cancel()
	raw, err := s.ep.Call(callCtx, PDPAddr, kindEvaluateBatch, xacml.EncodeBatch(wire))
	if err != nil {
		return failAll(fmt.Errorf("federation: PEP %s → PDP batch: %w", s.tenant, err))
	}
	results, itemErrs, err := xacml.DecodeBatchReply(raw)
	if err != nil {
		return failAll(fmt.Errorf("federation: PEP %s: %w", s.tenant, err))
	}
	if len(results) != len(sent) {
		return failAll(fmt.Errorf("federation: PEP %s batch reply has %d items for %d requests",
			s.tenant, len(results), len(sent)))
	}
	if tam != nil && tam.DropResponse {
		return failAll(ErrRequestDropped)
	}

	for k, i := range sent {
		req := reqs[i]
		if itemErrs[k] != nil {
			failOne(i, itemErrs[k])
			continue
		}
		res, err := xacml.DecodeResult(results[k])
		if err != nil {
			failOne(i, err)
			continue
		}
		if tam != nil && tam.Response != nil {
			res = tam.Response(res)
		}
		enforced := res.Decision
		if tam != nil && tam.Enforce != nil {
			enforced = tam.Enforce(res.Decision)
		}
		done[i](res, enforced, true)
		// Each item shares the batch's single round-trip, so every trace
		// in the pipeline records the same PEP-observed span duration.
		s.tracer.Load().Span(req.TraceID, trace.StagePEPDecide, start, time.Since(start))
		if enforced == xacml.Permit {
			s.permits.Inc()
		} else {
			s.denies.Inc()
		}
		out[i] = Enforcement{Decision: enforced, Obligations: res.Obligations, PolicyVersion: res.PolicyVersion}
	}
	return out, errors.Join(errs...)
}
