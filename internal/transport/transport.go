// Package transport defines the wire abstraction connecting the DRAMS
// components that sit in different places: PEP→PDP access calls
// (ac.eval, ac.evalBatch) and chain-node gossip and sync (bc.tx, bc.block,
// bc.getrange, bc.head). Everything else — agent→LI log submissions, alerts
// to subscribers — stays in the process that produces it. The rest of the
// system talks only to the Transport and Endpoint interfaces; concrete
// backends decide what "the network" actually is:
//
//   - netsim.Network: the in-process simulator with controllable latency,
//     jitter, loss, partitions and link faults (single-process federations,
//     deterministic tests, fault-injection experiments);
//   - tcp.Transport: a real length-prefixed-frame TCP stack with persistent
//     connections, per-peer write queues and reconnect, so a federation can
//     run as genuinely separate OS processes (cmd/drams-node daemon mode).
//
// Addressing is logical: endpoints are named strings ("node@cloud-1",
// "pep@tenant-1", "pdp@infrastructure"), and a backend maps names to
// whatever locators it uses underneath. Both backends must satisfy the
// semantics pinned down by the transporttest conformance suite.
//
// # Payload lifetime
//
// Backends hand payloads on without copying them where they can (netsim and
// tcp's loopback give a handler the caller's own bytes), so who may read
// and write a payload's bytes, and until when, is part of the contract:
//
//   - Call's request payload is read by the backend, and by the peer's
//     handler when the peer is in this process, until Call returns with the
//     reply. The caller keeps the bytes unchanged until then. A Call that
//     ends without its reply (deadline, ctx, send error, Close) may leave
//     its frame queued or its handler running, so the caller never reuses
//     that payload.
//   - A call handler's payload (OnCall) is valid until the handler
//     returns. What the handler keeps, or decodes in place and keeps, it
//     clones; the PDP decodes each request in place and keeps nothing.
//   - The reply a call handler returns passes to the backend: the handler
//     neither reads nor writes it after returning. It may be the handler's
//     payload itself (an echo), which the backend reads before it lets go of
//     the payload.
//   - The reply Call returns is the caller's: no backend reads or reuses it
//     after Call returns, so the caller may keep it or use it as a buffer of
//     its own. It may share the request payload's bytes (an echo).
//   - A one-way message's payload is the receiver's: the sender does not
//     reuse what it passed to Send, and the OnMessage handler may keep what
//     it is handed (a chain node pools the transactions it admits).
package transport

import (
	"context"
	"errors"
	"time"
)

// Sentinel errors shared by all transport backends so callers can use
// errors.Is without knowing which backend is underneath. Backends may wrap
// these with context.
var (
	// ErrUnknownAddress is returned when sending to an unregistered address.
	ErrUnknownAddress = errors.New("transport: unknown address")
	// ErrAddressInUse is returned when registering a duplicate address.
	ErrAddressInUse = errors.New("transport: address already registered")
	// ErrDropped is returned to callers when the transport dropped the
	// request or the reply (Call only; one-way sends are dropped silently,
	// as on a real network).
	ErrDropped = errors.New("transport: message dropped")
	// ErrNoHandler is returned when the peer has no handler for a call kind.
	ErrNoHandler = errors.New("transport: no handler for message kind")
	// ErrClosed is returned after Transport.Close.
	ErrClosed = errors.New("transport: closed")
)

// Stats aggregates transport-level traffic counters. For multi-process
// backends the counters are per-process: Sent counts local egress,
// Delivered local ingress dispatches.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64
	Bytes     int64
	// Reconnects counts re-established peer links after a connection was
	// lost (always 0 on the in-process simulator, which has no links).
	Reconnects int64
}

// Endpoint is one addressable participant on a transport. Implementations
// must be safe for concurrent use: handlers may be invoked concurrently
// with each other and with outbound operations.
//
// Delivery contract. One-way messages from one endpoint to another are
// handed to the receiver's handler one at a time, in the order they were
// sent: a link delays and loses frames, it does not reorder them. Messages
// from different senders, and call handlers, run concurrently. Because the
// next frame of a link waits for the handler of the one before it, an
// OnMessage handler must not wait on a Call over the link its message
// arrived on (the reply would queue behind the handler itself); hand such
// work to another goroutine. An OnCall handler may: call handlers
// run concurrently and never wait for each other, for the link, or for a
// free worker (a backend runs them on pooled goroutines, Workers, and starts
// a new one whenever none is parked).
type Endpoint interface {
	// Addr returns the endpoint's logical address.
	Addr() string
	// Send transmits a one-way message. Loss is silent by design: an error
	// is returned only for local conditions (unknown destination, closed
	// transport), never for in-flight loss.
	Send(to, kind string, payload []byte) error
	// Call sends a request and waits for the reply, the call's deadline
	// (SetCallTimeout), ctx cancellation or transport failure. Remote
	// handler errors come back as errors; the ErrNoHandler and ErrDropped
	// sentinels survive the wire (errors.Is). The package doc says how long
	// payload and the reply are read and whose they are.
	Call(ctx context.Context, to, kind string, payload []byte) ([]byte, error)
	// SetCallTimeout bounds every later Call from this endpoint: one that
	// has neither its reply nor the end of its ctx within d of being sent
	// fails with an error wrapping context.DeadlineExceeded. The backend
	// checks the deadlines on one timer per endpoint (Calls), so a call
	// arms no timer. Zero, the default, leaves calls bounded by ctx alone.
	SetCallTimeout(d time.Duration)
	// OnMessage registers a handler for one-way messages of the given kind.
	OnMessage(kind string, fn func(from string, payload []byte))
	// OnCall registers a request handler for the given kind. payload is
	// valid until the handler returns (package doc), so what the handler
	// decodes may alias it while it runs: the PDP decodes its requests in
	// place.
	OnCall(kind string, fn func(from string, payload []byte) ([]byte, error))
}

// Transport connects endpoints. A single process may host many logical
// endpoints on one transport.
type Transport interface {
	// Register creates an endpoint bound to the logical address.
	Register(addr string) (Endpoint, error)
	// Unregister removes addr from the transport.
	Unregister(addr string)
	// Addresses lists every known endpoint address — local ones and, for
	// multi-process backends, addresses learned from connected peers.
	Addresses() []string
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
	// Close shuts the transport down; subsequent operations fail with
	// ErrClosed.
	Close() error
}

// RemoteError maps a wire error string back onto the sentinel errors where
// possible, so callers can use errors.Is across the network boundary. Both
// backends funnel remote handler errors through this.
func RemoteError(s string) error {
	switch s {
	case ErrNoHandler.Error():
		return ErrNoHandler
	case ErrDropped.Error():
		return ErrDropped
	default:
		return errors.New(s)
	}
}
