package logger

import (
	"strings"
	"sync"

	"drams/internal/clock"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/metrics"
	"drams/internal/xacml"
)

// Agent is a probing agent: it senses access-control activity at the
// interception points of its tenant and forwards observations to the local
// Logging Interface (paper §II: "Probing agents for intercepting and
// forwarding data to create access logs").
//
// Agents are passive sensors: an observation failure never blocks or alters
// the access-control flow; it is counted and the M3 timeout check surfaces
// the gap.
type Agent struct {
	name   string
	tenant string
	li     *LI
	clk    clock.Clock

	observed metrics.Counter
	errors   metrics.Counter

	// muted kinds are observed but never forwarded — an attack drill
	// that leaves one leg of every exchange off-chain so the fleet's M3
	// timeout check must flag this member.
	mu    sync.RWMutex
	muted map[core.LogKind]bool
}

// AgentStats snapshot.
type AgentStats struct {
	Observed int64
	Errors   int64
}

// NewAgent builds an agent forwarding to li.
func NewAgent(name, tenant string, li *LI, clk clock.Clock) *Agent {
	if clk == nil {
		clk = clock.System{}
	}
	return &Agent{name: name, tenant: tenant, li: li, clk: clk}
}

// Name returns the agent name.
func (a *Agent) Name() string { return a.name }

// Mute suppresses forwarding for one interception point (attack drill:
// the member keeps serving traffic, but the muted leg never reaches the
// chain, so every exchange trips the M3 message-suppressed check once its
// timeout window expires).
func (a *Agent) Mute(kind core.LogKind) {
	a.mu.Lock()
	if a.muted == nil {
		a.muted = make(map[core.LogKind]bool)
	}
	a.muted[kind] = true
	a.mu.Unlock()
}

// isMuted reports whether kind is drilled out.
func (a *Agent) isMuted(kind core.LogKind) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.muted[kind]
}

// Stats snapshots the agent counters.
func (a *Agent) Stats() AgentStats {
	return AgentStats{Observed: a.observed.Value(), Errors: a.errors.Value()}
}

// side is one exchange as seen from one interception side of the agent's
// tenant (PEP egress/ingress at an edge, PDP ingress/egress in the
// infrastructure tenant). Each observation is digested, sealed and stamped
// at its interception point; the request-side record is then held here — on
// the goroutine serving the exchange, so nothing is left behind when that
// returns — until the side completes, and the two go to the LI as one queue
// entry: one anchoring transaction per side.
type side struct {
	a   *Agent
	req *xacml.Request
	// id and traceID are the request's IDs as the records keep them.
	id, traceID string
	reqDigest   crypto.Digest
	// origin is the tenant whose PEP sent the request.
	origin string
	recs   [2]core.LogRecord
	n      int
}

// open starts a side with the request-side observation of kind, for a
// request origin's PEP sent. With ownIDs the records get copies of the
// request's IDs, which alias a buffer the caller reuses.
func (a *Agent) open(kind core.LogKind, req *xacml.Request, origin string, ownIDs bool) *side {
	s := &side{a: a, req: req, id: req.ID, traceID: req.TraceID, reqDigest: req.Digest(), origin: origin}
	if ownIDs {
		s.id = strings.Clone(req.ID)
		s.traceID = s.id
		if req.TraceID != req.ID {
			s.traceID = strings.Clone(req.TraceID)
		}
	}
	s.observe(core.LogRecord{Kind: kind}, core.EncryptedContext{Request: req})
	return s
}

// observe completes rec — whose kind and response fields the caller set —
// and holds it until the side closes.
func (s *side) observe(rec core.LogRecord, ec core.EncryptedContext) {
	a := s.a
	a.observed.Inc()
	if a.isMuted(rec.Kind) {
		return
	}
	payload, err := a.li.Seal(ec, s.req.ID)
	if err != nil {
		a.errors.Inc()
		return
	}
	rec.ReqID = s.id
	rec.TraceID = s.traceID
	rec.ReqDigest = s.reqDigest
	rec.Payload = payload
	rec.Agent = a.name
	rec.Tenant = a.tenant
	rec.Origin = s.origin
	rec.TimestampUnixNano = a.clk.Now().UnixNano()
	s.recs[s.n] = rec
	s.n++
}

// close hands what the side holds to the LI. A side that ended without its
// response (or with one leg muted) hands over the other record alone, so M3
// still learns of the exchange.
func (s *side) close() {
	if s.n == 0 {
		return
	}
	if err := s.a.li.enqueue(s.recs[:s.n]); err != nil {
		s.a.errors.Inc()
	}
	s.n = 0
}

// PEPRequestSent records that the tenant's PEP sent req towards the PDP, and
// returns the hook that ends the edge's side of the exchange: the response
// as it arrived at the PEP and the effect the PEP actually enforced, or
// ok=false when the exchange failed before one was observed.
func (a *Agent) PEPRequestSent(req *xacml.Request) func(res xacml.Result, enforced xacml.Decision, ok bool) {
	return a.open(core.KindPEPRequest, req, a.tenant, false).pepResponseReceived
}

func (s *side) pepResponseReceived(res xacml.Result, enforced xacml.Decision, ok bool) {
	if ok {
		s.observe(core.LogRecord{
			Kind:        core.KindPEPResponse,
			RespDigest:  res.Digest(),
			DecisionTag: s.a.li.DecisionTag(s.req.ID, res.Decision),
			EnforcedTag: s.a.li.DecisionTag(s.req.ID, enforced),
		}, core.EncryptedContext{Request: s.req, Result: &res, Enforced: enforced})
	}
	s.close()
}

// PDPRequestReceived records that the PDP received req from the PEP of
// tenant origin, and returns the hook that ends the PDP's side of the
// exchange: the decision the PDP sent, or ok=false when it sent none. The
// sealed context of the response includes the request so the Analyser can
// re-derive the expected decision. req is the PDP's pooled request, whose
// IDs alias the call's payload, so the records keep copies of them.
func (a *Agent) PDPRequestReceived(req *xacml.Request, origin string) func(res xacml.Result, ok bool) {
	return a.open(core.KindPDPRequest, req, origin, true).pdpResponseSent
}

func (s *side) pdpResponseSent(res xacml.Result, ok bool) {
	if ok {
		s.observe(core.LogRecord{
			Kind:          core.KindPDPResponse,
			RespDigest:    res.Digest(),
			DecisionTag:   s.a.li.DecisionTag(s.req.ID, res.Decision),
			PolicyVersion: res.PolicyVersion,
			PolicyDigest:  res.PolicyDigest,
		}, core.EncryptedContext{Request: s.req, Result: &res})
	}
	s.close()
}
