package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/blockchain"
	"drams/internal/clock"
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
	// PolicyActivations / PolicyRejections count the policy rollout events
	// published through this monitor (PAP watcher wiring).
	PolicyActivations int64
	PolicyRejections  int64
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
	// Replay delivers already-recorded matching events (alerts seen so
	// far, and AlertMatched for already-completed requests) into the
	// channel at subscribe time, before any live events.
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
		return !a.Type.IsSynthetic()
	}
	for _, t := range f.Types {
		if t == a.Type {
			return true
		}
	}
	return false
}

// subscriber is one live subscription.
type subscriber struct {
	filter  AlertFilter
	ch      chan Alert
	done    chan struct{} // closed on cancel; releases the ctx watcher
	dropped int64         // guarded by Monitor.mu
}

// openExchange is an exchange the monitor has seen anchored records of and
// no outcome yet.
type openExchange struct {
	first  time.Time // the earliest timestamp among its records
	height uint64    // the height its first record was seen at
}

// Monitor is the off-chain DRAMS observer: it consumes contract events from
// a blockchain node, aggregates security alerts, fans them out to
// subscribers, exposes wait primitives for tests/experiments, and measures
// detection latency from what the anchored records carry, so it times
// exchanges driven from any member. The on-chain state remains the ground
// truth; the monitor is a (restartable) view.
type Monitor struct {
	node *blockchain.Node
	clk  clock.Clock

	mu        sync.Mutex
	stopped   bool // set by Stop; new subscriptions are refused after
	alerts    []Alert
	alerted   map[string][]AlertType // reqID → types seen; dedupes re-delivered events
	byType    map[AlertType]int64
	matched   map[string]uint64 // reqID → height
	policyLog []Alert           // policy rollout events, for Replay
	open      map[string]openExchange
	subs      map[uint64]*subscriber
	nextSub   uint64

	tracer atomic.Pointer[trace.Tracer]

	logsSeen   metrics.Counter
	alertsSeen metrics.Counter
	matchedCnt metrics.Counter
	dropCnt    metrics.Counter
	policyActs metrics.Counter
	policyRejs metrics.Counter
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
		alerted: make(map[string][]AlertType),
		byType:  make(map[AlertType]int64),
		matched: make(map[string]uint64),
		open:    make(map[string]openExchange),
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
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.node.Follow(m.stop, from, func(blocks []blockchain.BlockEvents) {
			for _, b := range blocks {
				for _, e := range b.Events {
					m.handleEvent(e.Contract, e.Type, e.Payload, b.Height)
				}
				m.expireOpen(b.Height)
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
		m.replayLocked(sub)
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

// PublishPolicyEvent feeds a policy rollout observation (the PAP watcher's
// activated and rejected outcomes) into the monitor's stream. The events
// are synthetic: delivered only to subscriptions listing their type,
// retained for Replay, and counted separately from security alerts.
func (m *Monitor) PublishPolicyEvent(a Alert) {
	switch a.Type {
	case AlertPolicyActivated:
		m.policyActs.Inc()
	case AlertPolicyRejected:
		m.policyRejs.Inc()
	default:
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	m.policyLog = append(m.policyLog, a)
	m.publishLocked(a)
}

// replayLocked pushes already-recorded events matching the subscription
// into its channel: recorded alerts first, then policy rollout events, then
// synthetic AlertMatched events for completed requests.
func (m *Monitor) replayLocked(sub *subscriber) {
	for _, a := range m.alerts {
		if sub.filter.matches(a) {
			m.sendLocked(sub, a)
		}
	}
	for _, a := range m.policyLog {
		if sub.filter.matches(a) {
			m.sendLocked(sub, a)
		}
	}
	if sub.filter.ReqID != "" {
		if h, ok := m.matched[sub.filter.ReqID]; ok {
			a := Alert{Type: AlertMatched, ReqID: sub.filter.ReqID, Height: h}
			if sub.filter.matches(a) {
				m.sendLocked(sub, a)
			}
		}
		return
	}
	for reqID, h := range m.matched {
		a := Alert{Type: AlertMatched, ReqID: reqID, Height: h}
		if sub.filter.matches(a) {
			m.sendLocked(sub, a)
		}
	}
}

// sendLocked delivers one event to one subscriber without blocking,
// counting a drop when the buffer is full.
func (m *Monitor) sendLocked(sub *subscriber, a Alert) {
	select {
	case sub.ch <- a:
	default:
		sub.dropped++
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

// expireOpen drops the open exchanges first seen more than E blocks below
// height. The contract ends every exchange it opens with Matched or an alert
// by its M3 deadline; what outlives that is a request whose records sat only
// in an abandoned block and expired before they landed again, and after E+1
// blocks no follower is delivered that block again.
func (m *Monitor) expireOpen(height uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for reqID, o := range m.open {
		if o.height+blockchain.TxLifetime < height {
			delete(m.open, reqID)
		}
	}
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
		_, matched := m.matched[rec.ReqID]
		_, alerted := m.alerted[rec.ReqID]
		if o, ok := m.open[rec.ReqID]; ok {
			if at.Before(o.first) {
				o.first = at
				m.open[rec.ReqID] = o
			}
		} else if !matched && !alerted {
			// The map keeps the ID: its own bytes, not the event's.
			m.open[strings.Clone(rec.ReqID)] = openExchange{first: at, height: height}
		}
		m.mu.Unlock()
	case EventMatched:
		reqID, _, err := decodeMatched(payload)
		if err != nil {
			return
		}
		m.mu.Lock()
		if _, seen := m.matched[reqID]; seen {
			// Chain events are delivered at-least-once (reorgs re-deliver);
			// completions are published to subscribers exactly once.
			m.mu.Unlock()
			return
		}
		// The map and the subscribers keep the ID: its own bytes, not the
		// event's.
		reqID = strings.Clone(reqID)
		m.matched[reqID] = height
		o, wasOpen := m.open[reqID]
		delete(m.open, reqID)
		m.matchedCnt.Inc() // before subscribers hear of it: Stats never lags a WaitForMatched
		m.publishLocked(Alert{Type: AlertMatched, ReqID: reqID, Height: height})
		m.mu.Unlock()
		if wasOpen {
			m.tracer.Load().Span(reqID, trace.StageMonitorMatch, o.first, m.sinceRecord(o.first))
		}
	case EventAlert:
		a, err := DecodeAlert(payload)
		if err != nil {
			return
		}
		m.mu.Lock()
		if slices.Contains(m.alerted[a.ReqID], a.Type) {
			m.mu.Unlock()
			return
		}
		m.alerted[a.ReqID] = append(m.alerted[a.ReqID], a.Type)
		m.alerts = append(m.alerts, a)
		m.byType[a.Type]++
		if o, ok := m.open[a.ReqID]; ok {
			delete(m.open, a.ReqID)
			// Detection latency doubles as the monitor.alert span: the
			// exchange's earliest record to its first alert surfacing
			// off-chain.
			d := m.sinceRecord(o.first)
			m.latency.ObserveDuration(d)
			m.tracer.Load().Span(a.ReqID, trace.StageMonitorAlert, o.first, d)
		}
		m.publishLocked(a)
		m.mu.Unlock()
		m.alertsSeen.Inc()
	}
}

// WaitForAlert blocks until an alert of the given type is seen for reqID.
func (m *Monitor) WaitForAlert(ctx context.Context, reqID string, t AlertType) (Alert, error) {
	ch, cancel := m.Subscribe(ctx, AlertFilter{
		ReqID: reqID, Types: []AlertType{t}, Replay: true, Buffer: 1,
	})
	defer cancel()
	select {
	case a, ok := <-ch:
		if !ok {
			break
		}
		return a, nil
	case <-m.stop:
	}
	if err := ctx.Err(); err != nil {
		return Alert{}, fmt.Errorf("core: wait for %s on %s: %w", t, reqID, err)
	}
	return Alert{}, fmt.Errorf("core: wait for %s on %s: monitor stopped", t, reqID)
}

// WaitForMatched blocks until reqID completes cleanly.
func (m *Monitor) WaitForMatched(ctx context.Context, reqID string) error {
	ch, cancel := m.Subscribe(ctx, AlertFilter{
		ReqID: reqID, Types: []AlertType{AlertMatched}, Replay: true, Buffer: 1,
	})
	defer cancel()
	select {
	case _, ok := <-ch:
		if ok {
			return nil
		}
	case <-m.stop:
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: wait for matched %s: %w", reqID, err)
	}
	return fmt.Errorf("core: wait for matched %s: monitor stopped", reqID)
}

// Alerts returns a copy of all alerts seen so far.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alert, len(m.alerts))
	copy(out, m.alerts)
	return out
}

// AlertsFor returns the alerts recorded for one request.
func (m *Monitor) AlertsFor(reqID string) []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Alert
	for _, a := range m.alerts {
		if a.ReqID == reqID {
			out = append(out, a)
		}
	}
	return out
}

// Matched reports whether a request completed cleanly, and at what height.
func (m *Monitor) Matched(reqID string) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.matched[reqID]
	return h, ok
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
	tracked := len(m.open)
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
		PolicyActivations:  m.policyActs.Value(),
		PolicyRejections:   m.policyRejs.Value(),
	}
}
