package federation

import (
	"context"
	"errors"
	"fmt"
	"strings"
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
	// calls therefore lives no longer than the exchange. The response's
	// strings alias the reply's bytes, which the PEP reuses once the hook
	// returns: the probe clones what it keeps of them.
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
	// The result's strings alias the reply's bytes, as the probe's do.
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
	tenant string
	ep     transport.Endpoint

	probe  atomic.Pointer[probeBoxPEP]
	tamper atomic.Pointer[Tamper]
	tracer atomic.Pointer[trace.Tracer]

	// version is the PolicyVersion the last reply named, so that replies
	// under an unchanged policy share one string.
	version atomic.Pointer[string]

	requests metrics.Counter
	permits  metrics.Counter
	denies   metrics.Counter
	failures metrics.Counter
}

// bufList is a free list of wire buffers. A buffer comes back once its call
// has its reply, when neither the transport nor the PDP reads it any more
// (transport package doc); after a call that ended without its reply the
// frame may still be queued or handled, so its buffers are left to the
// collector. A channel rather than a sync.Pool, because it holds a slice
// without boxing it. Its places hold a buffer for more calls in flight than
// a process runs at once, and pin at most their number × wireBufMax.
type bufList chan []byte

var (
	// requestBufs holds the buffers PEPs encode their requests into.
	requestBufs = make(bufList, 256)
	// replyBufs holds the buffers the PDP encoded replies into, handed back
	// by a PEP in its process. A PDP whose PEPs are in other processes
	// finds it empty and sizes each reply to fit, as Result.Encode does.
	replyBufs = make(bufList, 256)
)

const (
	// requestBufSize is a new request buffer's capacity: acplane's
	// requests encode to 150–220 bytes.
	requestBufSize = 512
	// wireBufMax is the largest buffer kept; a larger one is left to the
	// collector rather than pinned.
	wireBufMax = 4 << 10
)

// get returns an empty buffer from l, or a new one of capacity fresh when l
// is empty.
func (l bufList) get(fresh int) []byte {
	select {
	case b := <-l:
		return b
	default:
		return make([]byte, 0, fresh)
	}
}

// put hands b back to l; nothing may read or write it after. A buffer
// larger than wireBufMax is dropped rather than pinned.
func (l bufList) put(b []byte) {
	if cap(b) == 0 || cap(b) > wireBufMax {
		return
	}
	select {
	case l <- b[:0]:
	default:
	}
}

// sameArray reports whether a and b are windows of one array (a handler
// that echoes its payload replies with the caller's own bytes).
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
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
	// The transport bounds the PEP's calls on the endpoint's one timer: a
	// decision makes no context.WithTimeout, so it arms no timer.
	ep.SetCallTimeout(timeout)
	return &PEPService{tenant: tenant, ep: ep}, nil
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

// admit counts a request, stamps its trace ID and appends its wire encoding
// to buf, refusing in the same pass one carrying a value outside what a
// request may carry (xacml.ErrUnsupportedValue). A refused request never
// reaches the probe or the PDP: nothing is decided, so nothing goes
// unmonitored.
func (s *PEPService) admit(req *xacml.Request, buf []byte) ([]byte, error) {
	s.requests.Inc()
	ensureTraceID(req)
	payload, err := req.AppendChecked(buf)
	if err != nil {
		s.failures.Inc()
		return nil, fmt.Errorf("federation: PEP %s: %w", s.tenant, err)
	}
	return payload, nil
}

// Decide runs the full PEP flow for an application request: probe, forward
// to the PDP, receive, probe, enforce. It returns what was enforced.
//
// The request is encoded into a buffer of requestBufs, and the reply
// decoded in place; both buffers go back to their free lists once the reply
// is enforced. With monitoring off a decision allocates nothing.
func (s *PEPService) Decide(ctx context.Context, req *xacml.Request) (Enforcement, error) {
	start := time.Now()
	buf := requestBufs.get(requestBufSize)
	encoded, err := s.admit(req, buf)
	if err != nil {
		requestBufs.put(buf)
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
	payload := encoded
	if tam != nil {
		if tam.DropRequest {
			requestBufs.put(encoded)
			return fail(ErrRequestDropped)
		}
		if tam.Request != nil {
			payload = tam.Request(req.Clone()).Encode()
		}
	}

	raw, err := s.ep.Call(ctx, PDPAddr, kindEvaluate, payload)
	if err != nil {
		// The frame may still be queued or its handler running: the
		// buffers stay theirs.
		return fail(fmt.Errorf("federation: PEP %s → PDP: %w", s.tenant, err))
	}
	var res xacml.Result
	err = xacml.DecodeResultInto(&res, raw)
	// Response-side suppression happens before the probe sees the arrival
	// (the probe observes the tenant edge).
	if err == nil && tam != nil && tam.DropResponse {
		err = ErrRequestDropped
	}
	var enf Enforcement
	if err == nil {
		// What the application gets keeps nothing of the reply's bytes: the
		// policy version is the string the last reply named when it did not
		// change, and obligations are copied.
		enf = s.enforce(req, res, tam, done, start)
		enf.Obligations = cloneObligations(enf.Obligations)
		enf.PolicyVersion = s.policyVersion(enf.PolicyVersion)
	}
	// The reply is here: the PDP is done with the request's bytes, and
	// nothing read from the reply's is kept. A tampered request's own
	// encoding is left to the collector.
	requestBufs.put(encoded)
	if !sameArray(raw, encoded) {
		replyBufs.put(raw)
	}
	if err != nil {
		return fail(err)
	}
	return enf, nil
}

// enforce ends an exchange whose response arrived: response-side
// tampering, the probe's arrival hook, the span and the counters. It
// returns what was enforced, with res's obligations and policy version.
func (s *PEPService) enforce(req *xacml.Request, res xacml.Result, tam *Tamper,
	done func(xacml.Result, xacml.Decision, bool), start time.Time) Enforcement {
	if tam != nil && tam.Response != nil {
		res = tam.Response(res)
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
	return Enforcement{Decision: enforced, Obligations: res.Obligations, PolicyVersion: res.PolicyVersion}
}

// policyVersion returns v as a string of its own: the one the last reply
// named when v is the same.
func (s *PEPService) policyVersion(v string) string {
	if last := s.version.Load(); last != nil && *last == v {
		return *last
	}
	owned := strings.Clone(v)
	s.version.Store(&owned)
	return owned
}

// cloneObligations deep-copies obligations decoded in place.
func cloneObligations(obs []xacml.Obligation) []xacml.Obligation {
	if len(obs) == 0 {
		return nil
	}
	out := make([]xacml.Obligation, len(obs))
	for i, o := range obs {
		out[i] = xacml.Obligation{ID: strings.Clone(o.ID), FulfillOn: o.FulfillOn}
		if o.Params != nil {
			out[i].Params = make(map[string]string, len(o.Params))
			for k, v := range o.Params {
				out[i].Params[strings.Clone(k)] = strings.Clone(v)
			}
		}
	}
	return out
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
		// Sized as Request.Encode sizes a request: one allocation each.
		payload, err := s.admit(req, make([]byte, 0, 256))
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

	raw, err := s.ep.Call(ctx, PDPAddr, kindEvaluateBatch, xacml.EncodeBatch(wire))
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
		if itemErrs[k] != nil {
			failOne(i, itemErrs[k])
			continue
		}
		// Each result gets its own copy of its item, so an Enforcement the
		// caller keeps does not hold the whole batch reply.
		res, err := xacml.DecodeResult(results[k])
		if err != nil {
			failOne(i, err)
			continue
		}
		// Each item shares the batch's single round-trip, so every trace
		// in the pipeline records the same PEP-observed span duration.
		out[i] = s.enforce(reqs[i], res, tam, done[i], start)
	}
	return out, errors.Join(errs...)
}
