// Package tcp is the real-network implementation of transport.Transport: a
// length-prefixed-frame TCP stack that lets a DRAMS federation run as
// genuinely separate OS processes.
//
// One Transport per process. It listens on Config.ListenAddr, dials the
// static seed peers from Config.Peers, and keeps one persistent connection
// per peer with a dedicated write queue and reconnect-with-backoff. A
// "hello" carries a node's whole table of logical endpoint addresses: each
// side sends one when a connection opens, and after every Register and
// Unregister, so logical addresses ("node@cloud-1", "pdp@infrastructure")
// route to whichever process hosts them. Sends to addresses hosted locally
// are delivered in-process without touching a socket.
//
// Delivery semantics match netsim (pinned by the transporttest conformance
// suite): one-way loss is silent, one-way messages that cross a socket are
// handled in send order, Call correlates request/response (transport.Calls)
// and honours its endpoint's deadline and ctx cancellation mid-flight, and
// remote handler errors keep their ErrNoHandler/ErrDropped sentinel identity
// across the wire.
package tcp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/metrics"
	"drams/internal/transport"
)

// Config controls one process's transport.
type Config struct {
	// ListenAddr is the host:port to listen on ("127.0.0.1:0" picks an
	// ephemeral port).
	ListenAddr string
	// AdvertiseAddr is the address peers dial to reach this node; defaults
	// to the resolved listen address. It doubles as the node's identity, so
	// every process in a federation must refer to a node by the exact same
	// string.
	AdvertiseAddr string
	// Peers are seed advertise addresses of other transports. Connections
	// to them are established eagerly and re-established with backoff.
	Peers []string
}

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// maxBackoff caps the reconnect backoff; attempts start at 50ms and
	// double.
	maxBackoff = 2 * time.Second
	// writeQueue bounds each peer's outbound frame queue; frames beyond it
	// are dropped, like any congested network drops.
	writeQueue = 4096
)

// Transport is one process's TCP transport. It implements
// transport.Transport.
type Transport struct {
	ln        net.Listener
	advertise string

	mu     sync.Mutex
	local  map[string]*endpoint // logical addr -> endpoint
	remote map[string]string    // logical addr -> hosting node (advertise addr)
	// gen numbers the changes of local: Register and Unregister advance it,
	// and a hello carries the number its address list was read at. It
	// starts at New's wall-clock time in nanoseconds, so a restarted process
	// numbers above its earlier run.
	gen uint64
	// seen is, per node, the number of the newest hello applied from it.
	// The hello that answers an accepted connection is written outside the
	// peer's queue, on another connection than the writer's hellos, and may
	// arrive after a hello read at a later change: one older than seen is
	// stale and is dropped.
	seen   map[string]uint64
	peers  map[string]*peer      // node advertise addr -> connection manager
	conns  map[net.Conn]struct{} // every live conn, so Close can unblock readers
	closed bool

	stop    chan struct{}
	wg      sync.WaitGroup    // every goroutine and in-flight dispatch
	workers transport.Workers // run inbound calls and loopback frames
	tasks   sync.Pool         // *task: a frame on its way to a worker

	sent       metrics.Counter
	delivered  metrics.Counter
	dropped    metrics.Counter
	bytes      metrics.Counter
	reconnects metrics.Counter
}

var _ transport.Transport = (*Transport)(nil)

// New starts a transport: it listens immediately and begins dialing the
// configured seed peers in the background.
func New(cfg Config) (*Transport, error) {
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", cfg.ListenAddr, err)
	}
	adv := cfg.AdvertiseAddr
	if adv == "" {
		adv = ln.Addr().String()
		// The advertise address is the identity peers dial back; a
		// wildcard host would be silently undialable (all learned
		// addresses attributed to e.g. "0.0.0.0:port"), so refuse it
		// rather than misroute later.
		if host, _, err := net.SplitHostPort(adv); err == nil {
			if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
				ln.Close()
				return nil, fmt.Errorf("tcp: listening on wildcard %s needs an explicit AdvertiseAddr", cfg.ListenAddr)
			}
		}
	}
	t := &Transport{
		ln:        ln,
		advertise: adv,
		local:     make(map[string]*endpoint),
		remote:    make(map[string]string),
		gen:       uint64(time.Now().UnixNano()),
		seen:      make(map[string]uint64),
		peers:     make(map[string]*peer),
		conns:     make(map[net.Conn]struct{}),
		stop:      make(chan struct{}),
	}
	t.tasks.New = func() any {
		tk := &task{}
		tk.run = func() { t.runTask(tk) }
		return tk
	}
	t.wg.Add(1)
	go t.acceptLoop()
	for _, seed := range cfg.Peers {
		if seed == adv {
			continue
		}
		t.peerFor(seed)
	}
	return t, nil
}

// Addr returns the resolved listen address (useful with ":0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Advertise returns the node identity peers know this transport by.
func (t *Transport) Advertise() string { return t.advertise }

// Stats returns a snapshot of this process's traffic counters.
func (t *Transport) Stats() transport.Stats {
	return transport.Stats{
		Sent:       t.sent.Value(),
		Delivered:  t.delivered.Value(),
		Dropped:    t.dropped.Value(),
		Bytes:      t.bytes.Value(),
		Reconnects: t.reconnects.Value(),
	}
}

// Register creates a local endpoint bound to the logical address and sends
// every peer a fresh hello.
func (t *Transport) Register(addr string) (transport.Endpoint, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if _, ok := t.local[addr]; ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp: register %q: %w", addr, transport.ErrAddressInUse)
	}
	ep := &endpoint{
		t:     t,
		addr:  addr,
		msgH:  make(map[string]func(from string, payload []byte)),
		callH: make(map[string]func(from string, payload []byte) ([]byte, error)),
	}
	t.local[addr] = ep
	t.changedLocked()
	t.mu.Unlock()
	return ep, nil
}

// Unregister removes a local address and sends every peer a fresh hello.
func (t *Transport) Unregister(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.local[addr]; ok {
		delete(t.local, addr)
		t.changedLocked()
	}
}

// changedLocked numbers a change of local and asks every peer's writer for
// a hello read after it; the caller holds t.mu.
func (t *Transport) changedLocked() {
	t.gen++
	for _, p := range t.peers {
		p.resync()
	}
}

// Addresses lists every known logical address: local endpoints plus those
// learned from connected peers.
func (t *Transport) Addresses() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.local)+len(t.remote))
	for a := range t.local {
		out = append(out, a)
	}
	for a := range t.remote {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Close shuts the listener, all peer connections and in-flight dispatches
// down.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := t.peerList()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	for _, ep := range t.local {
		ep.calls.Stop()
	}
	t.mu.Unlock()
	close(t.stop)
	err := t.ln.Close()
	for _, p := range peers {
		p.close()
	}
	for _, c := range conns {
		c.Close() // unblock any reader parked in readFrame
	}
	t.wg.Wait()
	t.workers.Close()
	return err
}

// trackConn records a live connection so Close can unblock its reader;
// returns false (and leaves the conn untracked) when the transport is
// already closed.
func (t *Transport) trackConn(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *Transport) untrackConn(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

// peerList snapshots the peer set; callers hold t.mu.
func (t *Transport) peerList() []*peer {
	out := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		out = append(out, p)
	}
	return out
}

// peerFor returns (creating and starting if needed) the connection manager
// for a node.
func (t *Transport) peerFor(node string) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if p, ok := t.peers[node]; ok {
		return p
	}
	p := &peer{
		t:      t,
		node:   node,
		out:    make(chan frame, writeQueue),
		wake:   make(chan struct{}, 1),
		attach: make(chan net.Conn, 1),
		dead:   make(chan net.Conn, 8),
		stop:   make(chan struct{}),
	}
	// Endpoints registered between the connection's handshake snapshot and
	// this peer entry's creation would otherwise never reach the peer: have
	// the writer send a hello once it owns a connection.
	p.needsResync.Store(true)
	t.peers[node] = p
	t.wg.Add(1)
	go p.run()
	return p
}

// helloFrame builds this node's handshake frame.
func (t *Transport) helloFrame() frame {
	t.mu.Lock()
	addrs := make([]string, 0, len(t.local))
	for a := range t.local {
		addrs = append(addrs, a)
	}
	gen := t.gen
	t.mu.Unlock()
	return frame{typ: fHello, from: t.advertise, payload: appendHello(nil, gen, addrs)}
}

// syncAddrs makes a hello authoritative for its sender: addresses the node
// no longer lists are forgotten. A hello read before a change whose hello
// was already applied is dropped.
func (t *Transport) syncAddrs(node string, gen uint64, addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen < t.seen[node] {
		return
	}
	node = strings.Clone(node) // node and addrs alias the frame they came in
	t.seen[node] = gen
	listed := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		listed[a] = true
	}
	for a, n := range t.remote {
		if n == node && !listed[a] {
			delete(t.remote, a)
		}
	}
	for _, a := range addrs {
		t.learnLocked(node, a)
	}
}

// learnLocked records that node hosts addr, keeping a copy of an address
// it did not know; the caller holds t.mu.
func (t *Transport) learnLocked(node, addr string) {
	if _, local := t.local[addr]; local {
		return // never shadow a local endpoint
	}
	if _, known := t.remote[addr]; !known {
		addr = strings.Clone(addr)
	}
	t.remote[addr] = node
}

// acceptLoop serves inbound connections.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.stop:
				return
			case <-time.After(10 * time.Millisecond):
				// Brief pause so a persistent accept error (e.g. fd
				// exhaustion) cannot spin this loop at full speed.
			}
			continue
		}
		t.mu.Lock()
		closed := t.closed
		if !closed {
			t.wg.Add(1)
		}
		t.mu.Unlock()
		if closed || !t.trackConn(conn) {
			conn.Close()
			if closed {
				return
			}
			t.wg.Done()
			continue
		}
		go t.serveConn(conn)
	}
}

// serveConn handles one inbound connection: handshake, then a read loop.
// The inbound conn is offered to the peer's writer so nodes that never
// dialed us can still be written to.
func (t *Transport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrackConn(conn)
	r := bufio.NewReaderSize(conn, 64<<10)
	f, err := readFrame(r)
	if err != nil || f.typ != fHello || f.from == "" {
		conn.Close()
		return
	}
	gen, addrs, err := decodeHello(f.payload)
	if err != nil {
		conn.Close()
		return
	}
	node := strings.Clone(f.from)
	t.syncAddrs(node, gen, addrs)
	// Answer with our own hello directly on this conn — the peer's writer
	// does not own it yet, so this write cannot interleave.
	hf := t.helloFrame()
	out, err := appendFrame(nil, &hf)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_, err = conn.Write(out)
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return
	}
	p := t.peerFor(node)
	if p == nil {
		conn.Close()
		return
	}
	p.offer(conn)
	t.readLoop(r, conn, node)
}

// connDead tells the peer's writer its connection died, so it stops
// writing into a stale socket and redials (or adopts a fresh inbound conn).
func (t *Transport) connDead(node string, conn net.Conn) {
	t.mu.Lock()
	p := t.peers[node]
	t.mu.Unlock()
	if p != nil {
		select {
		case p.dead <- conn:
		default:
		}
	}
}

// readLoop dispatches frames arriving on conn until it fails. One-way
// messages go through one dispatcher goroutine per connection, so they reach
// their handlers one at a time in the order the peer sent them (the
// transport.Endpoint delivery contract); replies complete their Call inline;
// call requests run on pooled workers, never waiting for each other or for
// this loop, because call handlers may block or call back over this
// connection.
func (t *Transport) readLoop(r *bufio.Reader, conn net.Conn, node string) {
	defer t.connDead(node, conn)
	// Deep enough that one slow handler run does not hold up the replies
	// and calls read after it. A handler that stays behind fills it, the
	// read stalls, and TCP flow control pushes the backlog to the sender's
	// write queue, which is where a congested link drops.
	msgs := make(chan frame, 256)
	defer close(msgs)
	t.wg.Add(1) // the caller holds a count for readLoop, so this cannot race Close's Wait
	go func() {
		defer t.wg.Done()
		for f := range msgs {
			t.dispatch(f, node)
		}
	}()
	for {
		f, err := readFrame(r)
		if err != nil {
			conn.Close()
			return
		}
		switch f.typ {
		case fHello:
			if gen, addrs, err := decodeHello(f.payload); err == nil && f.from != "" {
				t.syncAddrs(f.from, gen, addrs)
			}
		case fMsg:
			select {
			case msgs <- f:
			case <-t.stop:
				conn.Close()
				return
			}
		case fCall:
			t.mu.Lock()
			closed := t.closed
			if !closed {
				t.wg.Add(1)
			}
			t.mu.Unlock()
			if closed {
				conn.Close()
				return
			}
			t.goDispatch(f, node)
		case fReply:
			t.deliverReply(f)
		}
	}
}

func (t *Transport) localEndpoint(addr string) *endpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.local[addr]
}

// dispatch delivers an ingress message or call to the target local
// endpoint. viaNode is the peer the frame arrived from ("" for loopback
// delivery within this process).
func (t *Transport) dispatch(f frame, viaNode string) {
	ep := t.localEndpoint(f.to)
	if ep == nil {
		t.dropped.Inc()
		return
	}
	t.delivered.Inc()
	switch f.typ {
	case fMsg:
		ep.dispatchMsg(f)
	case fCall:
		reply := frame{typ: fReply, corr: f.corr, from: f.to, to: f.from}
		out, err := ep.dispatchCall(f)
		if err != nil {
			reply.errStr = err.Error()
		} else {
			reply.payload = out
		}
		t.sendReply(reply, viaNode)
	}
}

// task is a frame on its way to a worker, with the worker's function bound
// once, so handing a frame to a worker allocates nothing.
type task struct {
	f   frame
	via string
	run func()
}

// goDispatch dispatches f on a worker. The caller has counted it in t.wg.
func (t *Transport) goDispatch(f frame, viaNode string) {
	tk := t.tasks.Get().(*task)
	tk.f, tk.via = f, viaNode
	t.workers.Go(tk.run)
}

// runTask dispatches tk's frame, handing tk back to the pool first.
func (t *Transport) runTask(tk *task) {
	defer t.wg.Done()
	f, via := tk.f, tk.via
	tk.f, tk.via = frame{}, ""
	t.tasks.Put(tk)
	t.dispatch(f, via)
}

// deliverReply completes a pending local Call with an arriving reply.
func (t *Transport) deliverReply(reply frame) {
	if ep := t.localEndpoint(reply.to); ep != nil {
		ep.calls.Deliver(reply.corr, reply.payload, reply.errStr)
	}
}

// sendReply routes a reply back to the caller: locally when the call
// originated in this process, else over the connection's peer.
func (t *Transport) sendReply(reply frame, viaNode string) {
	t.sent.Inc()
	t.bytes.Add(int64(len(reply.payload)))
	if viaNode == "" {
		t.deliverReply(reply)
		return
	}
	if p := t.peerFor(viaNode); p != nil {
		p.enqueue(reply)
	}
}

// send routes an egress frame by logical destination.
func (t *Transport) send(f frame) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return transport.ErrClosed
	}
	_, isLocal := t.local[f.to]
	node, isRemote := t.remote[f.to]
	if !isLocal && !isRemote {
		t.mu.Unlock()
		return fmt.Errorf("tcp: send to %q: %w", f.to, transport.ErrUnknownAddress)
	}
	if isLocal {
		t.wg.Add(1)
	}
	t.mu.Unlock()

	t.sent.Inc()
	t.bytes.Add(int64(len(f.payload)))
	if isLocal {
		// Loopback delivery: stay off the socket, each frame on a worker of
		// its own. The ordering contract is kept only for frames that cross
		// a socket; no chain peer is local to its own transport.
		t.goDispatch(f, "")
		return nil
	}
	if p := t.peerFor(node); p != nil {
		p.enqueue(f)
	}
	return nil
}

// endpoint is one local addressable participant.
type endpoint struct {
	t    *Transport
	addr string

	mu    sync.RWMutex
	msgH  map[string]func(from string, payload []byte)
	callH map[string]func(from string, payload []byte) ([]byte, error)

	calls   transport.Calls[struct{}]
	timeout atomic.Int64 // SetCallTimeout's bound, in nanoseconds
}

var _ transport.Endpoint = (*endpoint)(nil)

// Addr returns the endpoint's logical address.
func (e *endpoint) Addr() string { return e.addr }

// OnMessage registers a handler for one-way messages of the given kind.
func (e *endpoint) OnMessage(kind string, fn func(from string, payload []byte)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.msgH[kind] = fn
}

// OnCall registers a request handler for the given kind.
func (e *endpoint) OnCall(kind string, fn func(from string, payload []byte) ([]byte, error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.callH[kind] = fn
}

// Send transmits a one-way message. Loss is silent by design.
func (e *endpoint) Send(to, kind string, payload []byte) error {
	return e.t.send(frame{typ: fMsg, from: e.addr, to: to, kind: kind, payload: payload})
}

// SetCallTimeout bounds every later Call from e (transport.Endpoint).
func (e *endpoint) SetCallTimeout(d time.Duration) { e.timeout.Store(int64(d)) }

// Call sends a request and waits for the reply, its deadline or ctx
// cancellation. The reply arrives at this endpoint (the reply frame's to),
// whose table finds the call by its correlation ID.
func (e *endpoint) Call(ctx context.Context, to, kind string, payload []byte) ([]byte, error) {
	s := e.calls.Open(time.Duration(e.timeout.Load()))
	if err := e.t.send(frame{typ: fCall, corr: s.Corr(), from: e.addr, to: to, kind: kind, payload: payload}); err != nil {
		e.calls.Abandon(s)
		return nil, err
	}
	reply, remote, err := e.calls.Wait(ctx, s, e.t.stop)
	switch {
	case errors.Is(err, transport.ErrClosed):
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("tcp: call %s/%s: %w", to, kind, err)
	case remote != "":
		return nil, transport.RemoteError(remote)
	}
	return reply, nil
}

// dispatchMsg runs the kind handler for a one-way message; a kind with no
// handler is discarded.
func (e *endpoint) dispatchMsg(f frame) {
	e.mu.RLock()
	fn, ok := e.msgH[f.kind]
	e.mu.RUnlock()
	if ok {
		fn(f.from, f.payload)
	}
}

// dispatchCall runs the call handler, mapping a missing handler onto the
// shared sentinel.
func (e *endpoint) dispatchCall(f frame) ([]byte, error) {
	e.mu.RLock()
	fn, ok := e.callH[f.kind]
	e.mu.RUnlock()
	if !ok {
		return nil, transport.ErrNoHandler
	}
	return fn(f.from, f.payload)
}

// peer manages the persistent connection to one other node: a single write
// queue drained by one goroutine that dials (with capped exponential
// backoff) whenever it has no usable connection, and adopts inbound
// connections offered by the accept path.
type peer struct {
	t      *Transport
	node   string
	out    chan frame
	wake   chan struct{} // one slot: needsResync was set
	attach chan net.Conn
	dead   chan net.Conn // readers report connections that failed
	stop   chan struct{}
	once   sync.Once

	// needsResync asks the writer to send a fresh hello ahead of its next
	// frame: set at peer creation and at every change of the local
	// addresses. Requests made before the writer gets to it are one hello.
	needsResync atomic.Bool
}

// enqueue queues a frame for the peer, dropping (with accounting) when the
// queue is full — backpressure behaves like a congested link.
func (p *peer) enqueue(f frame) {
	select {
	case p.out <- f:
	default:
		p.t.dropped.Inc()
	}
}

// resync asks the writer for a fresh hello and wakes it if it waits.
func (p *peer) resync() {
	p.needsResync.Store(true)
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// offer hands an inbound connection to the writer; if the writer already
// has one, the offer is discarded (the conn stays alive for reading).
func (p *peer) offer(conn net.Conn) {
	select {
	case p.attach <- conn:
	default:
	}
}

func (p *peer) close() {
	p.once.Do(func() { close(p.stop) })
}

// run is the peer's writer/redialer loop. One frame survives a write
// failure: it is held and retried on the next connection, so e.g. a call
// reply racing a peer restart still arrives once the link is back.
func (p *peer) run() {
	defer p.t.wg.Done()
	var conn net.Conn
	var encBuf []byte
	var held *frame  // frame whose write failed, retried after reconnect
	var hadConn bool // a link existed before, so the next attach is a reconnect
	backoff := 50 * time.Millisecond
	gotConn := func() {
		if hadConn {
			p.t.reconnects.Inc()
		}
		hadConn = true
	}
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	writeFrame := func(f *frame) bool {
		out, err := appendFrame(encBuf[:0], f)
		if err != nil {
			p.t.dropped.Inc()
			held = nil
			return true // unencodable: drop it, keep the conn
		}
		encBuf = out
		if _, err := conn.Write(out); err != nil {
			held = f
			conn.Close()
			conn = nil
			return false
		}
		held = nil
		return true
	}
	for {
		if conn == nil {
			select {
			case <-p.stop:
				return
			case c := <-p.attach:
				conn = c
				backoff = 50 * time.Millisecond
				gotConn()
				continue
			default:
			}
			c, err := net.DialTimeout("tcp", p.node, dialTimeout)
			if err != nil {
				select {
				case <-p.stop:
					return
				case c := <-p.attach:
					conn = c
					backoff = 50 * time.Millisecond
					gotConn()
				case <-time.After(backoff):
					backoff *= 2
					if backoff > maxBackoff {
						backoff = maxBackoff
					}
				}
				continue
			}
			// A dialed connection starts with our hello; the remote's
			// accept path answers with its own and learns our addresses.
			hf := p.t.helloFrame()
			out, encErr := appendFrame(encBuf[:0], &hf)
			if encErr != nil {
				c.Close()
				continue
			}
			encBuf = out
			if _, err := c.Write(out); err != nil {
				c.Close()
				continue
			}
			if !p.t.trackConn(c) {
				c.Close()
				return
			}
			conn = c
			backoff = 50 * time.Millisecond
			gotConn()
			p.t.mu.Lock()
			closed := p.t.closed
			if !closed {
				p.t.wg.Add(1)
			}
			p.t.mu.Unlock()
			if closed {
				return
			}
			r := bufio.NewReaderSize(conn, 64<<10)
			go func(conn net.Conn) {
				defer p.t.wg.Done()
				defer p.t.untrackConn(conn)
				p.t.readLoop(r, conn, p.node)
			}(conn)
		}
		if held != nil {
			f := held
			if !writeFrame(f) {
				continue
			}
		}
		// A hello goes first: address knowledge must not queue behind bulk
		// data.
		if p.needsResync.Swap(false) {
			hf := p.t.helloFrame()
			if !writeFrame(&hf) {
				p.needsResync.Store(true)
				continue
			}
		}
		select {
		case <-p.stop:
			return
		case c := <-p.dead:
			if c == conn {
				// Our reader saw this conn fail; stop writing into it.
				conn.Close()
				conn = nil
			}
		case c := <-p.attach:
			// Writer already has a conn; keep it — stale ones are reaped
			// via p.dead.
			_ = c
		case <-p.wake:
		case f := <-p.out:
			writeFrame(&f)
		}
	}
}
