// Package netsim simulates the federation network connecting tenants, clouds
// and monitoring components. What crosses it is what crosses a real
// federation's network — PEP→PDP access calls, and chain-node transaction
// and block gossip and range sync — and a Network can delay it (latency,
// jitter), lose it (SetLinkFault) and cut it off (Partition). This is the
// substitution for a real multi-datacenter deployment: goroutine-per-node on
// one box with explicit, controllable asynchrony (docs/ARCHITECTURE.md §6).
//
// Network is the in-process implementation of transport.Transport; the
// fault-injection surface (Partition, Heal, SetLinkFault) stays
// netsim-specific, behind the shared interface. The multi-process
// counterpart is transport/tcp.
//
// Every directed link (sender, receiver) is an ordered queue, like one TCP
// connection. A frame is due its sampled latency after it was sent and is
// delivered at the later of that and the previous frame's delivery: jitter
// delays, it never reorders. One-way messages and call replies are handed
// to the receiving endpoint one at a time in send order; call requests
// leave the queue in send order and their handlers run concurrently, never
// waiting for each other or for the queue, because call handlers may call
// back over the link they arrived on. Different links deliver concurrently.
// Drainers and handlers run on pooled workers (transport.Workers): a
// delivery starts no goroutine while one is parked, and reuses its grown
// stack. Close waits for every frame in flight, so what a test checks after
// it has either arrived or been lost.
//
// # Reproducibility contract
//
// All randomness a Network consumes — latency and jitter sampling and
// link-fault loss — is drawn from a single PRNG seeded by Config.Seed. Two
// networks built with the same Config therefore make the same per-message
// decisions when offered the same message sequence. Tests that inject
// faults or adversarial behaviour (internal/attack, the chaos campaign,
// partition drills) MUST pin an explicit Seed so that failures replay:
// goroutine scheduling still varies between runs, but the network itself
// never adds unseeded nondeterminism, and delivery order on a link is send
// order, not scheduler order. Seed 0 is a valid pin (it is a fixed default
// stream, not a time-derived one).
package netsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/clock"
	"drams/internal/idgen"
	"drams/internal/metrics"
	"drams/internal/transport"
)

// Sentinel errors, shared across transport backends (see package transport).
var (
	// ErrUnknownAddress is returned when sending to an unregistered address.
	ErrUnknownAddress = transport.ErrUnknownAddress
	// ErrAddressInUse is returned when registering a duplicate address.
	ErrAddressInUse = transport.ErrAddressInUse
	// ErrNoHandler is returned when the peer has no handler for a call kind.
	ErrNoHandler = transport.ErrNoHandler
	// ErrNetworkClosed is returned after Network.Close.
	ErrNetworkClosed = transport.ErrClosed
)

// envelope is one frame: a message plus the private wire fields of the
// simulator's request/response machinery. The delivery path hands the
// pointer on rather than copying the envelope into every frame below the
// handler. A one-way message's envelope is allocated at send and never
// written again; a call's request and reply envelopes live in its reply
// slot and are rewritten only by a later call on that slot, which the slot
// allows once the reply has arrived (transport.Calls).
type envelope struct {
	From    string
	To      string
	Kind    string
	Payload []byte
	corrID  uint64
	isReply bool
	callErr string
	// due is when the frame may be delivered. Zero means no latency: it is
	// delivered as soon as its link reaches it, without a timer.
	due time.Time
	// A call request carries the envelope its reply is written to, and
	// deliver, which delivers the request on a worker of its own; both are
	// its slot's.
	reply   *envelope
	deliver func()
}

// callFrames is what a netsim call keeps in its reply slot: its request and
// reply envelopes, with the request's deliver bound once.
type callFrames struct {
	req, rep envelope
}

// isRequest reports whether the envelope is the request half of a Call.
func (m *envelope) isRequest() bool { return m.corrID != 0 && !m.isReply }

// Config controls network behaviour.
type Config struct {
	// BaseLatency is the minimum one-way delivery delay.
	BaseLatency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// Seed makes latency and loss sampling reproducible (see the package
	// doc's reproducibility contract). Fault-injection and attack tests
	// must set it explicitly.
	Seed uint64
	// Clock is the time source; defaults to the system clock.
	Clock clock.Clock
}

// Stats aggregates network-level counters.
type Stats = transport.Stats

// Network routes messages between registered endpoints. It implements
// transport.Transport.
type Network struct {
	cfg     Config
	clk     clock.Clock
	rng     *idgen.Rand
	workers transport.Workers
	started atomic.Int64  // goroutines workers.Go started
	closing chan struct{} // closed by Close before it waits for the workers
	pace    *pacer        // nil unless frames sleep on the system clock
	state   struct {
		sync.Mutex
		endpoints map[string]*Endpoint
		groups    map[string]int // partition group per address; absent = 0
		links     map[string]linkFault
		closed    bool
	}
	sent      metrics.Counter
	delivered metrics.Counter
	dropped   metrics.Counter
	bytes     metrics.Counter
}

var _ transport.Transport = (*Network)(nil)

type linkFault struct {
	dropRate     float64
	extraLatency time.Duration
}

// New constructs a Network.
func New(cfg Config) *Network {
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	n := &Network{cfg: cfg, clk: cfg.Clock, rng: idgen.NewRand(cfg.Seed), closing: make(chan struct{})}
	if _, ok := cfg.Clock.(clock.System); ok {
		n.pace = new(pacer)
	}
	n.state.endpoints = make(map[string]*Endpoint)
	n.state.groups = make(map[string]int)
	n.state.links = make(map[string]linkFault)
	return n
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:      n.sent.Value(),
		Delivered: n.delivered.Value(),
		Dropped:   n.dropped.Value(),
		Bytes:     n.bytes.Value(),
	}
}

// Register creates an endpoint bound to addr.
func (n *Network) Register(addr string) (transport.Endpoint, error) {
	n.state.Lock()
	defer n.state.Unlock()
	if n.state.closed {
		return nil, ErrNetworkClosed
	}
	if _, ok := n.state.endpoints[addr]; ok {
		return nil, fmt.Errorf("netsim: register %q: %w", addr, ErrAddressInUse)
	}
	ep := &Endpoint{
		net:   n,
		addr:  addr,
		msgH:  make(map[string]func(from string, payload []byte)),
		callH: make(map[string]func(from string, payload []byte) ([]byte, error)),
		out:   make(map[string]*link),
	}
	n.state.endpoints[addr] = ep
	return ep, nil
}

// Unregister removes addr from the network.
func (n *Network) Unregister(addr string) {
	n.state.Lock()
	defer n.state.Unlock()
	delete(n.state.endpoints, addr)
	delete(n.state.groups, addr)
}

// Addresses lists registered endpoint addresses.
func (n *Network) Addresses() []string {
	n.state.Lock()
	defer n.state.Unlock()
	out := make([]string, 0, len(n.state.endpoints))
	for a := range n.state.endpoints {
		out = append(out, a)
	}
	return out
}

// Partition splits the network: each group's addresses can talk to each
// other but not across groups. Addresses not mentioned stay in group 0.
func (n *Network) Partition(groups ...[]string) {
	n.state.Lock()
	defer n.state.Unlock()
	n.state.groups = make(map[string]int)
	for gi, group := range groups {
		for _, a := range group {
			n.state.groups[a] = gi + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.state.Lock()
	defer n.state.Unlock()
	n.state.groups = make(map[string]int)
}

// SetLinkFault configures per-link loss and extra latency for traffic in
// either direction between a and b.
//
//lint:ignore deadcode fault-injection surface Deployment.Net hands out (with Partition and Heal); netsim's loss tests drive it
func (n *Network) SetLinkFault(a, b string, dropRate float64, extraLatency time.Duration) {
	n.state.Lock()
	defer n.state.Unlock()
	n.state.links[linkKey(a, b)] = linkFault{dropRate: dropRate, extraLatency: extraLatency}
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Close shuts the network down and waits for in-flight deliveries. Calls
// still waiting for a reply return ErrNetworkClosed.
func (n *Network) Close() error {
	n.state.Lock()
	if !n.state.closed {
		n.state.closed = true
		close(n.closing)
	}
	for _, ep := range n.state.endpoints {
		ep.calls.Stop()
	}
	n.state.Unlock()
	n.pace.close()
	n.workers.Close()
	return nil
}

// spawn runs fn on a pooled worker.
func (n *Network) spawn(fn func()) {
	if n.workers.Go(fn) {
		n.started.Add(1)
	}
}

// route decides whether a message may travel from src to dst and with what
// latency; it does not deliver.
func (n *Network) route(src, dst string) (latency time.Duration, drop bool, err error) {
	n.state.Lock()
	if n.state.closed {
		n.state.Unlock()
		return 0, false, ErrNetworkClosed
	}
	_, ok := n.state.endpoints[dst]
	gs, gd := n.state.groups[src], n.state.groups[dst]
	fault := n.state.links[linkKey(src, dst)]
	n.state.Unlock()

	if !ok {
		return 0, false, fmt.Errorf("netsim: route to %q: %w", dst, ErrUnknownAddress)
	}
	if gs != gd {
		// Partitioned: behaves as silent loss, like a real partition.
		return 0, true, nil
	}
	if fault.dropRate > 0 && n.rng.Float64() < fault.dropRate {
		return 0, true, nil
	}
	latency = n.cfg.BaseLatency + fault.extraLatency
	if n.cfg.Jitter > 0 {
		latency += time.Duration(n.rng.Uint64() % uint64(n.cfg.Jitter))
	}
	return latency, false, nil
}

// deliver performs the actual handoff to the destination endpoint. For a
// call request it returns the link of the reply when that link needs a
// drainer (see dispatch).
func (n *Network) deliver(msg *envelope) *link {
	n.state.Lock()
	ep, ok := n.state.endpoints[msg.To]
	n.state.Unlock()
	if !ok {
		n.dropped.Inc()
		return nil
	}
	n.delivered.Inc()
	return ep.dispatch(msg)
}

// link is the ordered delivery queue of one directed (sender, receiver)
// pair. At most one worker drains a link, and only while the queue is
// non-empty.
type link struct {
	mu       sync.Mutex
	queue    []*envelope // queue[head:] is waiting, oldest first
	head     int
	draining bool
	drain    func() // the network's drain of this link, bound once
}

// push appends msg and reports whether the caller must start the drainer.
func (l *link) push(msg *envelope) (start bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head > len(l.queue)/2 && len(l.queue) == cap(l.queue) {
		// Reclaim the delivered prefix before growing, so a link that is
		// never empty does not keep a slot for every frame it ever carried.
		k := copy(l.queue, l.queue[l.head:])
		clear(l.queue[k:])
		l.queue, l.head = l.queue[:k], 0
	}
	l.queue = append(l.queue, msg)
	start = !l.draining
	l.draining = true
	return start
}

// peek returns the oldest waiting frame, or clears draining when there is
// none (the drainer must then exit).
func (l *link) peek() (*envelope, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == len(l.queue) {
		l.draining = false
		return nil, false
	}
	return l.queue[l.head], true
}

// pop removes the frame peek returned. With release set and nothing else
// waiting it also clears draining, handing the link to the next sender's
// drainer: the caller is about to run a call handler on this worker.
func (l *link) pop(release bool) (released bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queue[l.head] = nil
	l.head++
	if l.head < len(l.queue) {
		return false
	}
	l.queue, l.head = l.queue[:0], 0
	if release {
		l.draining = false
	}
	return release
}

// drain delivers the link's frames in send order until none is waiting.
func (n *Network) drain(l *link) {
	for l != nil {
		msg, ok := l.peek()
		if !ok {
			return
		}
		if !msg.due.IsZero() && msg.due.After(n.clk.Now()) {
			// The wait is measured after the pacer is set, so that the
			// timerfd does not expire before the Go timer it is there for.
			n.pace.sleeping(msg.due)
			n.clk.Sleep(msg.due.Sub(n.clk.Now()))
			n.pace.woke(msg.due)
		}
		if !msg.isRequest() {
			l.pop(false)
			n.deliver(msg)
			continue
		}
		// A call request: its handler may block, or call back over this
		// very link, so it cannot hold the queue. On an otherwise idle link
		// this worker stops being the drainer, runs the handler itself and
		// then drains the reply's link, so a lone call costs one worker.
		if l.pop(true) {
			l = n.deliver(msg)
			continue
		}
		n.spawn(msg.deliver)
	}
}

// deliverCall delivers one call request on a worker of its own, which then
// drains the reply's link if it needs a drainer.
func (n *Network) deliverCall(msg *envelope) {
	n.drain(n.deliver(msg))
}

// send schedules a message from e for delivery, respecting faults, latency
// and the order of e's earlier frames to the same destination.
func (e *Endpoint) send(msg *envelope) error {
	l, err := e.enqueue(msg)
	if l != nil {
		e.net.spawn(l.drain)
	}
	return err
}

// enqueue is send without starting the drainer: it returns the link when
// msg found it idle and the caller must drain it.
func (e *Endpoint) enqueue(msg *envelope) (*link, error) {
	n := e.net
	n.sent.Inc()
	n.bytes.Add(int64(len(msg.Payload)))
	latency, drop, err := n.route(msg.From, msg.To)
	if err != nil {
		return nil, err
	}
	if drop {
		n.dropped.Inc()
		return nil, nil
	}
	if latency > 0 {
		msg.due = n.clk.Now().Add(latency)
	}
	l := e.linkTo(msg.To)
	if l.push(msg) {
		return l, nil
	}
	return nil, nil
}

// Endpoint is one addressable participant. It implements transport.Endpoint.
type Endpoint struct {
	net  *Network
	addr string

	mu    sync.RWMutex
	msgH  map[string]func(from string, payload []byte)
	callH map[string]func(from string, payload []byte) ([]byte, error)
	out   map[string]*link // outbound links by destination address

	calls   transport.Calls[callFrames]
	timeout atomic.Int64 // SetCallTimeout's bound, in nanoseconds
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() string { return e.addr }

// OnMessage registers a handler for one-way messages of the given kind.
func (e *Endpoint) OnMessage(kind string, fn func(from string, payload []byte)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.msgH[kind] = fn
}

// OnCall registers a request handler for the given kind.
func (e *Endpoint) OnCall(kind string, fn func(from string, payload []byte) ([]byte, error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.callH[kind] = fn
}

// linkTo returns e's outbound link to the given address, creating it on
// first use.
func (e *Endpoint) linkTo(to string) *link {
	e.mu.RLock()
	l := e.out[to]
	e.mu.RUnlock()
	if l != nil {
		return l
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if l = e.out[to]; l == nil {
		l = &link{}
		l.drain = func() { e.net.drain(l) }
		e.out[to] = l
	}
	return l
}

// Send transmits a one-way message. Loss is silent by design.
func (e *Endpoint) Send(to, kind string, payload []byte) error {
	return e.send(&envelope{From: e.addr, To: to, Kind: kind, Payload: payload})
}

// SetCallTimeout bounds every later Call from e (transport.Endpoint).
func (e *Endpoint) SetCallTimeout(d time.Duration) { e.timeout.Store(int64(d)) }

// Call sends a request and waits for the reply, its deadline or ctx
// cancellation. The request and reply envelopes are its reply slot's.
func (e *Endpoint) Call(ctx context.Context, to, kind string, payload []byte) ([]byte, error) {
	s := e.calls.Open(time.Duration(e.timeout.Load()))
	f := &s.Frames
	deliver := f.req.deliver
	if deliver == nil {
		deliver = func() { e.net.deliverCall(&f.req) }
	}
	f.req = envelope{From: e.addr, To: to, Kind: kind, Payload: payload, corrID: s.Corr(), reply: &f.rep, deliver: deliver}
	if err := e.send(&f.req); err != nil {
		e.calls.Abandon(s)
		return nil, err
	}
	reply, remote, err := e.calls.Wait(ctx, s, e.net.closing)
	switch {
	case errors.Is(err, transport.ErrClosed):
		return nil, ErrNetworkClosed
	case err != nil:
		return nil, fmt.Errorf("netsim: call %s/%s: %w", to, kind, err)
	case remote != "":
		return nil, transport.RemoteError(remote)
	}
	return reply, nil
}

// dispatch hands msg to this endpoint: on the link's drainer for one-way
// messages and replies, for a call request on a worker that no other frame
// waits for.
//
// A call request's reply is the last thing its worker sends, so when the
// reply finds its link idle dispatch returns that link and the worker
// drains it itself rather than hand it to another.
func (e *Endpoint) dispatch(msg *envelope) *link {
	if msg.isReply {
		e.calls.Deliver(msg.corrID, msg.Payload, msg.callErr)
		return nil
	}
	if msg.corrID != 0 {
		// Request/response call.
		e.mu.RLock()
		fn, ok := e.callH[msg.Kind]
		e.mu.RUnlock()
		reply := msg.reply
		*reply = envelope{From: e.addr, To: msg.From, Kind: msg.Kind, corrID: msg.corrID, isReply: true}
		if !ok {
			reply.callErr = ErrNoHandler.Error()
		} else {
			out, err := fn(msg.From, msg.Payload)
			if err != nil {
				reply.callErr = err.Error()
			} else {
				reply.Payload = out
			}
		}
		// Replies travel the same faulty network. A reply that cannot be
		// sent is lost like a dropped one; after Close the caller's Call
		// returns ErrNetworkClosed by itself.
		l, _ := e.enqueue(reply)
		return l
	}
	e.mu.RLock()
	fn, ok := e.msgH[msg.Kind]
	e.mu.RUnlock()
	if ok {
		fn(msg.From, msg.Payload)
	}
	return nil
}
