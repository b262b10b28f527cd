package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/blockchain"
	"drams/internal/clock"
	"drams/internal/contract"
	"drams/internal/metrics"
	"drams/internal/trace"
)

// defaultSubscriberBuffer is the channel capacity of a subscription when
// AlertFilter.Buffer is left zero.
const defaultSubscriberBuffer = 64

// MonitorStats is a snapshot of what the monitor has observed.
type MonitorStats struct {
	LogsSeen     int64
	AlertsSeen   int64
	Matched      int64
	AlertsByType map[AlertType]int64
	// DetectionLatencyMs summarises the time from an exchange's earliest
	// anchored record, by the timestamp its agent wrote into it, to the
	// exchange's first alert arriving off-chain. It trusts the agents'
	// clocks: on a multi-host fleet it includes their skew against the
	// monitor's, and a difference below zero counts as 0.
	DetectionLatencyMs metrics.Summary
	// Tracked is the number of open exchanges: an anchored record seen, no
	// match or alert yet.
	Tracked int
	// Subscribers is the number of live alert subscriptions.
	Subscribers int
	// StreamDropped counts events discarded because a subscriber's buffer
	// was full (slow consumer). The on-chain record is unaffected.
	StreamDropped int64
}

// AlertFilter selects which monitor events a subscription receives. The
// zero value matches every event.
type AlertFilter struct {
	// ReqID restricts the stream to one request ("" = any).
	ReqID string
	// Types restricts the stream to the listed alert types. nil matches
	// every security alert; the synthetic AlertMatched completion events
	// are opt-in and delivered only when Types lists them explicitly.
	Types []AlertType
	// Tenant restricts the stream to alerts attributed to one tenant.
	// AlertMatched events carry no tenant and are filtered out by a
	// non-empty Tenant.
	Tenant string
	// Replay delivers the matching events of the monitor's window (see
	// Monitor) into the channel at subscribe time, in chain order and
	// before any live event.
	Replay bool
	// Buffer sets the channel capacity (default 64). When the buffer is
	// full, further events for this subscriber are dropped and counted in
	// MonitorStats.StreamDropped.
	Buffer int
}

// matches reports whether the filter selects the event.
func (f AlertFilter) matches(a Alert) bool {
	if f.ReqID != "" && f.ReqID != a.ReqID {
		return false
	}
	if f.Tenant != "" && f.Tenant != a.Tenant {
		return false
	}
	if len(f.Types) == 0 {
		return a.Type != AlertMatched
	}
	return slices.Contains(f.Types, a.Type)
}

// subscriber is one live subscription.
type subscriber struct {
	filter AlertFilter
	ch     chan Alert
	done   chan struct{} // closed on cancel; releases the ctx watcher
}

// entry is what the monitor has seen of one request inside its window.
// It is open from its first anchored record to its match or first alert.
type entry struct {
	id      string    // the request ID: the window's key
	first   time.Time // the earliest timestamp among its records, while open
	open    bool
	matched uint64  // the height of its Matched event; 0 while unmatched
	alerts  []Alert // one per type, in delivery order
	last    uint64  // the height of its latest event
}

// due is a window entry's event height, queued in delivery order.
type due struct {
	e      *entry
	height uint64
}

// Monitor is the off-chain DRAMS observer: it consumes contract events from
// a blockchain node, aggregates security alerts, fans them out to
// subscribers, exposes wait primitives for tests/experiments, and measures
// detection latency from what the anchored records carry, so it times
// exchanges driven from any member. The on-chain state remains the ground
// truth; the monitor is a (restartable) view.
//
// The monitor keeps a window, not a history: an exchange's entry leaves it
// once the monitor has followed the chain more than E = blockchain.TxLifetime
// blocks past the entry's latest event. The chain delivers no follower a
// block deeper than E+1 again (a deeper reorg is counted in
// NodeStats.EventsDropped), so a re-delivered event finds its entry and is
// published once. What left the window, the log-match contract's done/ and
// alerted/ rows answer for.
type Monitor struct {
	node *blockchain.Node
	clk  clock.Clock

	mu       sync.Mutex
	stopped  bool // set by Stop; new subscriptions are refused after
	window   map[string]*entry
	queue    []due         // the window's event heights in delivery order
	followed uint64        // the height of the last block followed
	moved    chan struct{} // closed when the next block is followed; nil until a waiter asks
	byType   map[AlertType]int64
	subs     map[uint64]*subscriber
	nextSub  uint64

	tracer atomic.Pointer[trace.Tracer]

	logsSeen   metrics.Counter
	alertsSeen metrics.Counter
	matchedCnt metrics.Counter
	dropCnt    metrics.Counter
	latency    *metrics.Histogram

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewMonitor builds a monitor attached to a node.
func NewMonitor(node *blockchain.Node, clk clock.Clock) *Monitor {
	if clk == nil {
		clk = clock.System{}
	}
	return &Monitor{
		node:    node,
		clk:     clk,
		window:  make(map[string]*entry),
		byType:  make(map[AlertType]int64),
		subs:    make(map[uint64]*subscriber),
		latency: metrics.NewHistogram(),
		stop:    make(chan struct{}),
	}
}

// SetTracer attaches (or clears, with nil) the end-to-end span recorder:
// anchored records, matches and alerts then produce chain.anchor,
// monitor.match and monitor.alert spans. A chain.anchor span is keyed by
// the record's trace ID (which defaults to the request ID, so
// Deployment.Trace(reqID) finds it), the other two by the request ID.
func (m *Monitor) SetTracer(t *trace.Tracer) { m.tracer.Store(t) }

// Start begins consuming the events of the blocks that join its node's best
// chain from now on.
func (m *Monitor) Start() {
	from := m.node.Chain().Cursor()
	m.mu.Lock()
	m.followed = from.Height
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.node.Follow(m.stop, from, func(blocks []blockchain.BlockEvents) {
			for _, b := range blocks {
				for _, e := range b.Events {
					m.handleEvent(e.Contract, e.Type, e.Payload, b.Height)
				}
				m.endBlock(b.Height)
			}
		})
	}()
}

// Stop halts the monitor and closes every subscription channel.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	// Mark stopped before waiting: registration and wg.Add share the
	// mutex, so any Subscribe either completed its Add before this point
	// or will observe stopped and register nothing.
	m.mu.Lock()
	m.stopped = true
	subs := m.subs
	m.subs = make(map[uint64]*subscriber)
	m.mu.Unlock()
	m.wg.Wait()
	for _, s := range subs {
		close(s.done)
		close(s.ch)
	}
}

// Subscribe registers a stream of monitor events selected by the filter.
// The returned channel is closed when the subscription is cancelled, the
// context ends, or the monitor stops. The cancel function is idempotent and
// must be called (directly or via ctx) to release the subscription.
//
// Delivery is best-effort per subscriber: the channel buffer is bounded
// (AlertFilter.Buffer) and events beyond a full buffer are dropped and
// counted, so one slow consumer cannot stall the monitor or its peers.
func (m *Monitor) Subscribe(ctx context.Context, f AlertFilter) (<-chan Alert, func()) {
	buf := f.Buffer
	if buf <= 0 {
		buf = defaultSubscriberBuffer
	}
	sub := &subscriber{
		filter: f,
		ch:     make(chan Alert, buf),
		done:   make(chan struct{}),
	}

	m.mu.Lock()
	if m.stopped {
		// Subscribing to a stopped monitor yields a closed stream, same
		// as a live subscription observing shutdown.
		m.mu.Unlock()
		close(sub.done)
		close(sub.ch)
		return sub.ch, func() {}
	}
	id := m.nextSub
	m.nextSub++
	m.subs[id] = sub
	if f.Replay {
		for _, a := range m.windowLocked(f) {
			m.sendLocked(sub, a)
		}
	}
	watch := ctx != nil && ctx.Done() != nil
	if watch {
		// Under the same lock as registration, so Stop's wg.Wait is
		// ordered strictly after this Add.
		m.wg.Add(1)
	}
	m.mu.Unlock()

	cancel := func() {
		m.mu.Lock()
		s, ok := m.subs[id]
		delete(m.subs, id)
		m.mu.Unlock()
		if ok {
			// No delivery can race the close: sends only happen while the
			// subscriber is registered, under m.mu.
			close(s.done)
			close(s.ch)
		}
	}

	if watch {
		go func() {
			defer m.wg.Done()
			select {
			case <-ctx.Done():
				cancel()
			case <-sub.done:
			case <-m.stop:
			}
		}()
	}
	return sub.ch, cancel
}

// windowLocked returns the window's events that f selects, alerts and
// AlertMatched events, in chain order.
func (m *Monitor) windowLocked(f AlertFilter) []Alert {
	var out []Alert
	add := func(e *entry) {
		for _, a := range e.alerts {
			if f.matches(a) {
				out = append(out, a)
			}
		}
		if a := (Alert{Type: AlertMatched, ReqID: e.id, Height: e.matched}); e.matched != 0 && f.matches(a) {
			out = append(out, a)
		}
	}
	if f.ReqID != "" {
		if e, ok := m.window[f.ReqID]; ok {
			add(e)
		}
		return out
	}
	for _, e := range m.window {
		add(e)
	}
	// Stable, so one request's alerts keep their delivery order.
	slices.SortStableFunc(out, func(a, b Alert) int {
		return cmp.Or(cmp.Compare(a.Height, b.Height), strings.Compare(a.ReqID, b.ReqID))
	})
	return out
}

// sendLocked delivers one event to one subscriber without blocking,
// counting a drop when the buffer is full.
func (m *Monitor) sendLocked(sub *subscriber, a Alert) {
	select {
	case sub.ch <- a:
	default:
		m.dropCnt.Inc()
	}
}

// publishLocked fans an event out to every matching subscriber.
func (m *Monitor) publishLocked(a Alert) {
	for _, sub := range m.subs {
		if sub.filter.matches(a) {
			m.sendLocked(sub, a)
		}
	}
}

// endBlock runs after the events of a followed block: it records the
// height followed, wakes the waiters that read chain state, and drops the
// window's entries whose latest event is more than E blocks below height.
// It reads the queue only up to the first item not due; an entry whose
// latest event came later has a later item, and one a reorg delivered again
// at a lower height waits behind it, at most the reorg's depth. An open
// entry that outlives E blocks is a request whose records sat only in an
// abandoned block and expired before they landed again: the contract ends
// every exchange it opens by its M3 deadline.
func (m *Monitor) endBlock(height uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.followed = height
	if m.moved != nil {
		close(m.moved)
		m.moved = nil
	}
	for len(m.queue) > 0 && m.queue[0].height+blockchain.TxLifetime < height {
		e := m.queue[0].e
		m.queue[0] = due{}
		m.queue = m.queue[1:]
		if m.window[e.id] == e && e.last+blockchain.TxLifetime < height {
			delete(m.window, e.id)
		}
	}
}

// entryLocked returns reqID's window entry, adding one, with its event at
// height. The window keeps the ID: its own bytes, not the event's.
func (m *Monitor) entryLocked(reqID string, height uint64) *entry {
	e, ok := m.window[reqID]
	switch {
	case !ok:
		e = &entry{id: strings.Clone(reqID), last: height}
		m.window[e.id] = e
	case height > e.last:
		e.last = height
	default:
		return e
	}
	m.queue = append(m.queue, due{e, height})
	return e
}

// sinceRecord is the time from a record's timestamp to now, 0 when the
// agent's clock reads ahead of the monitor's.
func (m *Monitor) sinceRecord(at time.Time) time.Duration {
	return max(m.clk.Since(at), 0)
}

func (m *Monitor) handleEvent(contractName, eventType string, payload []byte, height uint64) {
	if contractName != ContractName {
		return
	}
	switch eventType {
	case EventLogStored:
		m.logsSeen.Inc()
		rec, err := recordHeader(payload)
		if err != nil || rec.ReqID == "" {
			return
		}
		at := time.Unix(0, rec.TimestampUnixNano)
		traceID := rec.TraceID
		if traceID == "" {
			traceID = rec.ReqID
		}
		// Observation to anchoring: how long the record took to reach a
		// block the monitor follows.
		m.tracer.Load().Span(traceID, trace.StageChainAnchor, at, m.sinceRecord(at))
		m.mu.Lock()
		switch e := m.entryLocked(rec.ReqID, height); {
		case e.open:
			if at.Before(e.first) {
				e.first = at
			}
		case e.matched == 0 && len(e.alerts) == 0:
			e.first, e.open = at, true
		}
		m.mu.Unlock()
	case EventMatched:
		reqID, _, err := decodeMatched(payload)
		if err != nil {
			return
		}
		m.mu.Lock()
		e := m.entryLocked(reqID, height)
		if e.matched != 0 {
			// Chain events are delivered at-least-once (reorgs re-deliver);
			// completions are published to subscribers exactly once.
			m.mu.Unlock()
			return
		}
		e.matched = height
		first, wasOpen := e.first, e.open
		e.open = false
		m.matchedCnt.Inc() // before subscribers hear of it: Stats never lags a WaitForMatched
		m.publishLocked(Alert{Type: AlertMatched, ReqID: e.id, Height: height})
		m.mu.Unlock()
		if wasOpen {
			m.tracer.Load().Span(e.id, trace.StageMonitorMatch, first, m.sinceRecord(first))
		}
	case EventAlert:
		a, err := DecodeAlert(payload)
		if err != nil {
			return
		}
		m.mu.Lock()
		e := m.entryLocked(a.ReqID, height)
		if slices.ContainsFunc(e.alerts, func(b Alert) bool { return b.Type == a.Type }) {
			m.mu.Unlock()
			return
		}
		e.alerts = append(e.alerts, a)
		m.byType[a.Type]++
		if e.open {
			e.open = false
			// Detection latency doubles as the monitor.alert span: the
			// exchange's earliest record to its first alert surfacing
			// off-chain.
			d := m.sinceRecord(e.first)
			m.latency.ObserveDuration(d)
			m.tracer.Load().Span(a.ReqID, trace.StageMonitorAlert, e.first, d)
		}
		m.publishLocked(a)
		m.mu.Unlock()
		m.alertsSeen.Inc()
	}
}

// WaitForAlert blocks until an alert of the given type is seen for reqID.
// An alert the monitor followed before it started, or below its window, is
// read from the contract's alerted/ row, as Alert{Type, ReqID}.
func (m *Monitor) WaitForAlert(ctx context.Context, reqID string, t AlertType) (Alert, error) {
	return m.await(ctx, reqID, t, alertedKey(reqID, t))
}

// WaitForMatched blocks until reqID completes cleanly, as the follower or,
// for an exchange it delivers no more, the contract's done/ row says.
func (m *Monitor) WaitForMatched(ctx context.Context, reqID string) error {
	_, err := m.await(ctx, reqID, AlertMatched, doneKey(reqID))
	return err
}

// await returns the first event of type t for reqID: from the window, from
// the follower, or from the contract row key once the follower has passed
// the chain's height without delivering it (its block came before the
// monitor started, or below the window). Waiting for the follower lets a
// caller who then reads Stats, Alerts or a trace find the event there.
func (m *Monitor) await(ctx context.Context, reqID string, t AlertType, key string) (Alert, error) {
	ch, cancel := m.Subscribe(ctx, AlertFilter{
		ReqID: reqID, Types: []AlertType{t}, Replay: true, Buffer: 1,
	})
	defer cancel()
	// Registered before the read: what the follower delivers after it
	// reaches ch, and what it delivered before is in the replay.
	onChain := len(ch) == 0 && m.onChain(key)
	var height uint64
	if onChain {
		height = m.node.Chain().Height() // at or above the state just read
	}
	for {
		var moved <-chan struct{}
		if onChain {
			m.mu.Lock()
			passed := m.followed >= height
			if !passed && m.moved == nil {
				m.moved = make(chan struct{})
			}
			moved = m.moved
			m.mu.Unlock()
			if passed && len(ch) == 0 { // an event of the blocks followed is in ch by now
				return Alert{Type: t, ReqID: reqID}, nil
			}
		}
		select {
		case a, ok := <-ch:
			if ok {
				return a, nil
			}
		case <-moved:
			continue
		case <-m.stop:
		}
		if err := ctx.Err(); err != nil {
			return Alert{}, fmt.Errorf("core: wait for %s on %s: %w", t, reqID, err)
		}
		return Alert{}, fmt.Errorf("core: wait for %s on %s: monitor stopped", t, reqID)
	}
}

// onChain reports whether the log-match contract's state at the node's head
// holds key. A monitor without a node holds no chain.
func (m *Monitor) onChain(key string) (ok bool) {
	if m.node != nil {
		m.node.Chain().ReadState(ContractName, func(st contract.StateDB) {
			_, ok = st.Get(key)
		})
	}
	return ok
}

// Alerts returns the alerts in the window, in chain order.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windowLocked(AlertFilter{})
}

// AlertsFor returns the alerts raised for one request: those in the window
// with their detail, then, as Alert{Type, ReqID}, the contract's alerted/
// rows of the other types.
func (m *Monitor) AlertsFor(reqID string) []Alert {
	m.mu.Lock()
	out := m.windowLocked(AlertFilter{ReqID: reqID})
	m.mu.Unlock()
	if m.node == nil {
		return out
	}
	prefix := "alerted/" + reqID + "/"
	m.node.Chain().ReadState(ContractName, func(st contract.StateDB) {
		for key := range st.Keys(prefix) {
			t := AlertType(key[len(prefix):])
			if !slices.ContainsFunc(out, func(a Alert) bool { return a.Type == t }) {
				out = append(out, Alert{Type: t, ReqID: reqID})
			}
		}
	})
	return out
}

// Matched reports whether a request completed cleanly, in the window or in
// the contract's done/ row.
func (m *Monitor) Matched(reqID string) bool {
	m.mu.Lock()
	e, ok := m.window[reqID]
	matched := ok && e.matched != 0
	m.mu.Unlock()
	return matched || m.onChain(doneKey(reqID))
}

// DetectionLatency exports the detection-latency distribution in a form a
// Prometheus histogram can be rendered from (milliseconds).
func (m *Monitor) DetectionLatency() metrics.HistExport { return m.latency.Export() }

// Stats snapshots the monitor counters.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	byType := make(map[AlertType]int64, len(m.byType))
	for k, v := range m.byType {
		byType[k] = v
	}
	tracked := 0
	for _, e := range m.window {
		if e.open {
			tracked++
		}
	}
	subscribers := len(m.subs)
	m.mu.Unlock()
	return MonitorStats{
		LogsSeen:           m.logsSeen.Value(),
		AlertsSeen:         m.alertsSeen.Value(),
		Matched:            m.matchedCnt.Value(),
		AlertsByType:       byType,
		DetectionLatencyMs: m.latency.Snapshot(),
		Tracked:            tracked,
		Subscribers:        subscribers,
		StreamDropped:      m.dropCnt.Value(),
	}
}
