package logger

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"drams/internal/core"
	"drams/internal/metrics"
	"drams/internal/transport"
	"drams/internal/xacml"
)

// The paper's §II describes the Logging Interface as "expos[ing] to agents
// endpoints for storing data and managing security alert events generated
// by smart-contracts". This file provides that network face: an LI can be
// exposed on the federation network, and RemoteAgent is a probing agent
// that talks to it over the wire instead of in-process.
//
// Security note: remote agents send *plaintext* observations over the
// tenant-internal channel and the LI derives digests, decision commitments
// and the encrypted payload itself — so the shared key K never leaves the
// LI (which is exactly what the §III TPM mitigation protects).

// Wire message kinds.
const (
	kindObserve   = "li.observe"
	kindSubscribe = "li.subscribe"
	kindAlertPush = "li.alert"
)

// Observation is a raw probe observation as sent by a remote agent.
type Observation struct {
	Kind              core.LogKind   `json:"kind"`
	ReqID             string         `json:"reqId"`
	Agent             string         `json:"agent"`
	TimestampUnixNano int64          `json:"ts"`
	Request           *xacml.Request `json:"request"`
	Result            *xacml.Result  `json:"result,omitempty"`
	Enforced          xacml.Decision `json:"enforced,omitempty"`
}

// Validate checks the observation shape for its kind.
func (o Observation) Validate() error {
	if o.ReqID == "" || o.Request == nil {
		return fmt.Errorf("logger: observation needs a request and id")
	}
	switch o.Kind {
	case core.KindPEPRequest, core.KindPDPRequest:
		return nil
	case core.KindPDPResponse:
		if o.Result == nil {
			return fmt.Errorf("logger: %s observation needs a result", o.Kind)
		}
		return nil
	case core.KindPEPResponse:
		if o.Result == nil || o.Enforced == 0 {
			return fmt.Errorf("logger: %s observation needs a result and enforced decision", o.Kind)
		}
		return nil
	default:
		return fmt.Errorf("logger: unknown observation kind %q", o.Kind)
	}
}

// LogObservation converts a raw observation into a full log record —
// deriving digests, keyed decision commitments and the sealed context —
// and submits it. This is the LI-side "storing data" endpoint logic,
// shared by the network face and available to in-process callers.
func (li *LI) LogObservation(ctx context.Context, obs Observation) error {
	if err := obs.Validate(); err != nil {
		return err
	}
	rec := core.LogRecord{
		Kind:              obs.Kind,
		ReqID:             obs.ReqID,
		Tenant:            li.cfg.Tenant,
		Agent:             obs.Agent,
		ReqDigest:         obs.Request.Digest(),
		TimestampUnixNano: obs.TimestampUnixNano,
	}
	ec := core.EncryptedContext{Request: obs.Request}
	if obs.Result != nil {
		rec.RespDigest = obs.Result.Digest()
		rec.DecisionTag = li.DecisionTag(obs.ReqID, obs.Result.Decision)
		ec.Result = obs.Result
	}
	switch obs.Kind {
	case core.KindPDPResponse:
		rec.PolicyVersion = obs.Result.PolicyVersion
		rec.PolicyDigest = obs.Result.PolicyDigest
	case core.KindPEPResponse:
		rec.EnforcedTag = li.DecisionTag(obs.ReqID, obs.Enforced)
		ec.Enforced = obs.Enforced
	}
	payload, err := li.Seal(ec, obs.ReqID)
	if err != nil {
		return fmt.Errorf("logger: seal observation: %w", err)
	}
	rec.Payload = payload
	return li.Log(ctx, rec)
}

// Expose registers the LI's endpoints on the network at addr. Remote agents
// submit observations with "li.observe" calls and receive security-alert
// pushes after a "li.subscribe" call.
func (li *LI) Expose(net transport.Transport, addr string) error {
	ep, err := net.Register(addr)
	if err != nil {
		return fmt.Errorf("logger: expose LI at %q: %w", addr, err)
	}
	var subMu sync.Mutex
	subscribers := make(map[string]bool)

	ep.OnCall(kindObserve, func(from string, payload []byte) ([]byte, error) {
		var obs Observation
		if err := json.Unmarshal(payload, &obs); err != nil {
			return nil, fmt.Errorf("logger: decode observation: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := li.LogObservation(ctx, obs); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})
	ep.OnCall(kindSubscribe, func(from string, payload []byte) ([]byte, error) {
		subMu.Lock()
		defer subMu.Unlock()
		subscribers[from] = true
		return []byte("ok"), nil
	})
	// Security alert events are pushed to every subscribed agent (§II:
	// "managing security alert events generated by smart-contracts").
	li.OnAlert(func(a core.Alert) {
		subMu.Lock()
		targets := make([]string, 0, len(subscribers))
		for s := range subscribers {
			targets = append(targets, s)
		}
		subMu.Unlock()
		for _, target := range targets {
			_ = ep.Send(target, kindAlertPush, a.Encode())
		}
	})
	return nil
}

// RemoteAgent is a probing agent in a different process/section than its
// LI: observations travel over the tenant network, one per frame, and reach
// the same flusher as an in-process agent's. It implements the same probe
// interfaces as the in-process Agent.
type RemoteAgent struct {
	name    string
	liAddr  string
	ep      transport.Endpoint
	timeout time.Duration

	alertMu  sync.Mutex
	onAlert  []func(core.Alert)
	observed metrics.Counter
	errors   metrics.Counter
	now      func() int64
}

// NewRemoteAgent registers an agent endpoint on the network, pointed at an
// exposed LI.
func NewRemoteAgent(net transport.Transport, name, liAddr string) (*RemoteAgent, error) {
	ep, err := net.Register(name)
	if err != nil {
		return nil, fmt.Errorf("logger: register remote agent %q: %w", name, err)
	}
	ra := &RemoteAgent{
		name:    name,
		liAddr:  liAddr,
		ep:      ep,
		timeout: 10 * time.Second,
		now:     func() int64 { return time.Now().UnixNano() },
	}
	ep.OnMessage(kindAlertPush, func(from string, payload []byte) {
		a, err := core.DecodeAlert(payload)
		if err != nil {
			return
		}
		ra.alertMu.Lock()
		handlers := make([]func(core.Alert), len(ra.onAlert))
		copy(handlers, ra.onAlert)
		ra.alertMu.Unlock()
		for _, fn := range handlers {
			fn(a)
		}
	})
	return ra, nil
}

// Subscribe asks the LI to push security alerts to this agent.
func (ra *RemoteAgent) Subscribe(ctx context.Context) error {
	_, err := ra.ep.Call(ctx, ra.liAddr, kindSubscribe, nil)
	return err
}

// OnAlert registers a handler for pushed alerts.
func (ra *RemoteAgent) OnAlert(fn func(core.Alert)) {
	ra.alertMu.Lock()
	defer ra.alertMu.Unlock()
	ra.onAlert = append(ra.onAlert, fn)
}

// Stats snapshots the agent counters.
func (ra *RemoteAgent) Stats() AgentStats {
	return AgentStats{Observed: ra.observed.Value(), Errors: ra.errors.Value()}
}

// SetCallTimeout bounds each observation call to the LI (default 10s).
func (ra *RemoteAgent) SetCallTimeout(d time.Duration) {
	if d > 0 {
		ra.timeout = d
	}
}

func (ra *RemoteAgent) send(obs Observation) {
	ra.observed.Inc()
	obs.Agent = ra.name
	obs.TimestampUnixNano = ra.now()
	payload, err := json.Marshal(obs)
	if err != nil {
		ra.errors.Inc()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), ra.timeout)
	defer cancel()
	if _, err := ra.ep.Call(ctx, ra.liAddr, kindObserve, payload); err != nil {
		ra.errors.Inc()
	}
}

// PEPRequestSent implements federation.PEPProbe. A remote agent forwards each
// observation in a frame of its own as it is made; an exchange that ends
// without a response has nothing more to forward.
func (ra *RemoteAgent) PEPRequestSent(req *xacml.Request) func(res xacml.Result, enforced xacml.Decision, ok bool) {
	ra.send(Observation{Kind: core.KindPEPRequest, ReqID: req.ID, Request: req})
	return func(res xacml.Result, enforced xacml.Decision, ok bool) {
		if ok {
			ra.send(Observation{Kind: core.KindPEPResponse, ReqID: req.ID, Request: req, Result: &res, Enforced: enforced})
		}
	}
}

// PDPRequestReceived implements federation.PDPProbe.
func (ra *RemoteAgent) PDPRequestReceived(req *xacml.Request) func(res xacml.Result, ok bool) {
	ra.send(Observation{Kind: core.KindPDPRequest, ReqID: req.ID, Request: req})
	return func(res xacml.Result, ok bool) {
		if ok {
			ra.send(Observation{Kind: core.KindPDPResponse, ReqID: req.ID, Request: req, Result: &res})
		}
	}
}
