package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"drams/internal/blockchain"
	"drams/internal/clock"
)

// dispatcherMonitor builds a monitor that is never started: handleEvent is
// driven directly, so the dispatcher is exercised without a chain node.
func dispatcherMonitor() *Monitor {
	return NewMonitor(nil, clock.System{})
}

func pumpAlert(m *Monitor, a Alert) {
	m.handleEvent(ContractName, EventAlert, a.Encode(), a.Height)
}

func pumpMatched(m *Monitor, reqID string, height uint64) {
	m.handleEvent(ContractName, EventMatched, encodeMatched(reqID, height), height)
}

func TestSubscribeFilterSelectsEvents(t *testing.T) {
	m := dispatcherMonitor()
	defer m.Stop()

	all, cancelAll := m.Subscribe(context.Background(), AlertFilter{})
	defer cancelAll()
	byTenant, cancelTen := m.Subscribe(context.Background(), AlertFilter{Tenant: "t1"})
	defer cancelTen()
	byType, cancelType := m.Subscribe(context.Background(), AlertFilter{Types: []AlertType{AlertEquivocation}})
	defer cancelType()
	matchedOnly, cancelMatched := m.Subscribe(context.Background(), AlertFilter{Types: []AlertType{AlertMatched}})
	defer cancelMatched()

	pumpAlert(m, Alert{Type: AlertRequestTampered, ReqID: "r1", Tenant: "t1", Height: 1})
	pumpAlert(m, Alert{Type: AlertEquivocation, ReqID: "r2", Tenant: "t2", Height: 2})
	pumpMatched(m, "r3", 3)

	recv := func(ch <-chan Alert) []Alert {
		var out []Alert
		for {
			select {
			case a := <-ch:
				out = append(out, a)
			default:
				return out
			}
		}
	}
	// The zero filter carries every security alert but not the synthetic
	// completion events.
	if got := recv(all); len(got) != 2 {
		t.Fatalf("all-filter got %v", got)
	}
	if got := recv(byTenant); len(got) != 1 || got[0].ReqID != "r1" {
		t.Fatalf("tenant-filter got %v", got)
	}
	if got := recv(byType); len(got) != 1 || got[0].Type != AlertEquivocation {
		t.Fatalf("type-filter got %v", got)
	}
	if got := recv(matchedOnly); len(got) != 1 || got[0].Type != AlertMatched || got[0].ReqID != "r3" {
		t.Fatalf("matched-filter got %v", got)
	}
}

func TestSubscribeReplayDeliversHistory(t *testing.T) {
	m := dispatcherMonitor()
	defer m.Stop()

	pumpAlert(m, Alert{Type: AlertRequestTampered, ReqID: "r1", Tenant: "t1", Height: 1})
	pumpMatched(m, "r2", 2)

	ch, cancel := m.Subscribe(context.Background(), AlertFilter{ReqID: "r1", Replay: true})
	defer cancel()
	select {
	case a := <-ch:
		if a.Type != AlertRequestTampered {
			t.Fatalf("replayed %v", a)
		}
	default:
		t.Fatal("no replayed alert")
	}

	mch, mcancel := m.Subscribe(context.Background(), AlertFilter{
		Types: []AlertType{AlertMatched}, Replay: true,
	})
	defer mcancel()
	select {
	case a := <-mch:
		if a.Type != AlertMatched || a.ReqID != "r2" {
			t.Fatalf("replayed %v", a)
		}
	default:
		t.Fatal("no replayed matched event")
	}
}

func TestSlowConsumerDropAccounting(t *testing.T) {
	m := dispatcherMonitor()
	defer m.Stop()

	ch, cancel := m.Subscribe(context.Background(), AlertFilter{Buffer: 2})
	defer cancel()
	const n = 50
	for i := 0; i < n; i++ {
		pumpAlert(m, Alert{Type: AlertEquivocation, ReqID: fmt.Sprintf("r%d", i), Height: uint64(i)})
	}
	if got := m.Stats().StreamDropped; got != n-2 {
		t.Fatalf("StreamDropped = %d, want %d", got, n-2)
	}
	// The buffered prefix is intact: drops never reorder or corrupt.
	a := <-ch
	b := <-ch
	if a.ReqID != "r0" || b.ReqID != "r1" {
		t.Fatalf("buffered = %v, %v", a, b)
	}
	// A healthy peer subscribed later is unaffected by the slow one.
	fast, fcancel := m.Subscribe(context.Background(), AlertFilter{})
	defer fcancel()
	pumpAlert(m, Alert{Type: AlertEquivocation, ReqID: "fresh", Height: 99})
	if got := <-fast; got.ReqID != "fresh" {
		t.Fatalf("fast sub got %v", got)
	}
}

func TestSubscribeCancelAndContext(t *testing.T) {
	m := dispatcherMonitor()
	defer m.Stop()

	ch, cancel := m.Subscribe(context.Background(), AlertFilter{})
	if m.Stats().Subscribers != 1 {
		t.Fatalf("subscribers = %d", m.Stats().Subscribers)
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after cancel")
	}
	if m.Stats().Subscribers != 0 {
		t.Fatalf("subscribers = %d after cancel", m.Stats().Subscribers)
	}

	ctx, ctxCancel := context.WithCancel(context.Background())
	ch2, cancel2 := m.Subscribe(ctx, AlertFilter{})
	defer cancel2()
	ctxCancel()
	select {
	case _, ok := <-ch2:
		if ok {
			t.Fatal("unexpected event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after ctx cancel")
	}
}

func TestMatchedRedeliveryPublishedOnce(t *testing.T) {
	m := dispatcherMonitor()
	defer m.Stop()

	ch, cancel := m.Subscribe(context.Background(), AlertFilter{Types: []AlertType{AlertMatched}})
	defer cancel()
	// Chain events are at-least-once: a reorg re-delivers Matched.
	pumpMatched(m, "r1", 3)
	pumpMatched(m, "r1", 5)
	if got := <-ch; got.ReqID != "r1" || got.Height != 3 {
		t.Fatalf("first completion = %v", got)
	}
	select {
	case got := <-ch:
		t.Fatalf("duplicate completion delivered: %v", got)
	default:
	}
	if got := m.Stats().Matched; got != 1 {
		t.Fatalf("Matched = %d, want 1", got)
	}
}

func TestSubscribeAfterStopYieldsClosedStream(t *testing.T) {
	m := dispatcherMonitor()
	m.Stop()
	ch, cancel := m.Subscribe(context.Background(), AlertFilter{})
	if _, ok := <-ch; ok {
		t.Fatal("subscription on a stopped monitor delivered an event")
	}
	cancel() // no-op, must not panic
	if got := m.Stats().Subscribers; got != 0 {
		t.Fatalf("subscribers = %d", got)
	}
}

func TestStopClosesSubscriptions(t *testing.T) {
	m := dispatcherMonitor()
	ch, cancel := m.Subscribe(context.Background(), AlertFilter{})
	m.Stop()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("unexpected event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed by Stop")
	}
	cancel() // still safe after Stop
}

// TestSubscribeStorm hammers the dispatcher with concurrent subscribes,
// unsubscribes and a sustained alert storm; run under -race this is the
// safety net for the locking scheme.
func TestSubscribeStorm(t *testing.T) {
	m := dispatcherMonitor()
	defer m.Stop()

	const (
		storms   = 4
		alerts   = 500
		churners = 8
		rounds   = 40
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < storms; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < alerts; i++ {
				pumpAlert(m, Alert{
					Type:   AlertEquivocation,
					ReqID:  fmt.Sprintf("s%d-r%d", s, i),
					Tenant: fmt.Sprintf("t%d", i%3),
					Height: uint64(i),
				})
			}
		}(s)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ch, cancel := m.Subscribe(context.Background(), AlertFilter{
					Tenant: fmt.Sprintf("t%d", r%3),
					Buffer: 4,
				})
				// Drain a little, then churn away mid-stream.
				for i := 0; i < 2; i++ {
					select {
					case <-ch:
					case <-stop:
					default:
					}
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()
	close(stop)

	if got := m.Stats().Subscribers; got != 0 {
		t.Fatalf("leaked %d subscribers", got)
	}
	if got := m.Stats().AlertsSeen; got != storms*alerts {
		t.Fatalf("alerts seen = %d, want %d", got, storms*alerts)
	}
}

func pumpRecord(m *Monitor, reqID string, at time.Time, height uint64) {
	rec := LogRecord{Kind: KindPEPRequest, ReqID: reqID, TimestampUnixNano: at.UnixNano()}
	m.handleEvent(ContractName, EventLogStored, rec.Encode(), height)
}

// TestOpenExchangesEnd: an exchange is open from its first anchored record
// to its match or first alert, and is timed from its earliest record.
func TestOpenExchangesEnd(t *testing.T) {
	m := dispatcherMonitor()
	defer m.Stop()
	tracked := func(want int) {
		t.Helper()
		if got := m.Stats().Tracked; got != want {
			t.Fatalf("tracked = %d, want %d", got, want)
		}
	}
	t0 := time.Now().Add(-time.Second)

	// A later record of the same exchange opens nothing new; an alert ends
	// it, timed from the earlier record.
	pumpRecord(m, "will-alert", t0, 3)
	pumpRecord(m, "will-alert", t0.Add(time.Minute), 4)
	tracked(1)
	pumpAlert(m, Alert{Type: AlertEquivocation, ReqID: "will-alert", Height: 4})
	tracked(0)
	if l := m.Stats().DetectionLatencyMs; l.Count != 1 || l.Min < 1000 {
		t.Fatalf("latency = %+v, want one sample of at least 1 s", l)
	}

	// A record that lands after its request's alert opens nothing.
	pumpRecord(m, "will-alert", t0, 5)
	tracked(0)

	// A match ends its exchange, and a re-delivered block of its records
	// does not open it again.
	pumpRecord(m, "will-match", t0, 6)
	tracked(1)
	pumpMatched(m, "will-match", 7)
	tracked(0)
	pumpRecord(m, "will-match", t0, 6)
	tracked(0)

	// A record stamped ahead of the monitor's clock counts as 0.
	pumpRecord(m, "ahead", time.Now().Add(time.Hour), 8)
	pumpAlert(m, Alert{Type: AlertEquivocation, ReqID: "ahead", Height: 8})
	if l := m.Stats().DetectionLatencyMs; l.Count != 2 || l.Min != 0 {
		t.Fatalf("latency = %+v, want a second sample of 0", l)
	}
}

// TestAbandonedExchangeExpires: an exchange whose records never reach an
// outcome, as when they sat only in an abandoned block, is dropped once it
// is E+1 blocks old.
func TestAbandonedExchangeExpires(t *testing.T) {
	m := dispatcherMonitor()
	defer m.Stop()
	pumpRecord(m, "abandoned", time.Now(), 10)
	pumpRecord(m, "younger", time.Now(), 11)
	m.endBlock(10 + blockchain.TxLifetime)
	if got := m.Stats().Tracked; got != 2 {
		t.Fatalf("tracked = %d at age E, want 2", got)
	}
	m.endBlock(10 + blockchain.TxLifetime + 1)
	if got := m.Stats().Tracked; got != 1 {
		t.Fatalf("tracked = %d at age E+1, want 1", got)
	}
	m.endBlock(11 + blockchain.TxLifetime + 1)
	if got := m.Stats().Tracked; got != 0 {
		t.Fatalf("tracked = %d, want 0", got)
	}
}

// TestMonitorWindow: the monitor keeps what it saw of the last E+1 blocks
// it followed, not of every exchange.
func TestMonitorWindow(t *testing.T) {
	const window = blockchain.TxLifetime + 1
	t.Run("bounded", func(t *testing.T) {
		m := dispatcherMonitor()
		defer m.Stop()
		// One exchange per height, as a follower delivers them: most match,
		// every 7th is alerted, every 11th is abandoned after one record.
		height := uint64(0)
		drive := func(n int) {
			for range n {
				height++
				reqID := fmt.Sprintf("r%d", height)
				pumpRecord(m, reqID, time.Now(), height)
				switch {
				case height%11 == 0:
				case height%7 == 0:
					pumpAlert(m, Alert{Type: AlertEnforcementMismatch, ReqID: reqID, Height: height})
				default:
					pumpMatched(m, reqID, height)
				}
				m.endBlock(height)
			}
		}
		retained := func() (entries, queued, tracked int) {
			tracked = m.Stats().Tracked
			m.mu.Lock()
			defer m.mu.Unlock()
			return len(m.window), len(m.queue), tracked
		}
		// More than 2(E+1) heights, and a multiple of 77, so the windows
		// after N and 2N hold the same mix.
		const n = 77 * (2*window/77 + 1)
		drive(n)
		e1, q1, o1 := retained()
		drive(n)
		e2, q2, o2 := retained()
		if e1 != e2 || q1 != q2 || o1 != o2 {
			t.Fatalf("retained after N: %d entries, %d queued, %d open; after 2N: %d, %d, %d",
				e1, q1, o1, e2, q2, o2)
		}
		if e2 > window || q2 > window {
			t.Fatalf("%d entries, %d queued; a window holds %d heights", e2, q2, window)
		}
		if got := len(m.Alerts()); got == 0 || got > window/7+1 {
			t.Fatalf("Alerts() = %d alerts, want the window's", got)
		}
		if st := m.Stats(); st.Matched != int64(2*n-2*n/7-2*n/11+2*n/77) || st.Tracked != o2 {
			t.Fatalf("stats = %+v", st)
		}
	})
	t.Run("redelivery inside the window published once", func(t *testing.T) {
		m := dispatcherMonitor()
		defer m.Stop()
		ch, cancel := m.Subscribe(context.Background(), AlertFilter{Types: []AlertType{AlertMatched}})
		defer cancel()
		pumpMatched(m, "r1", 3)
		m.endBlock(3 + blockchain.TxLifetime)
		pumpMatched(m, "r1", 3) // a reorg delivers the block again
		if got := <-ch; got.ReqID != "r1" || got.Height != 3 {
			t.Fatalf("completion = %v", got)
		}
		select {
		case got := <-ch:
			t.Fatalf("duplicate completion delivered: %v", got)
		default:
		}
		if !m.Matched("r1") || m.Stats().Matched != 1 {
			t.Fatalf("Matched = %v, count %d", m.Matched("r1"), m.Stats().Matched)
		}
	})
	t.Run("entry past E gone", func(t *testing.T) {
		m := dispatcherMonitor()
		defer m.Stop()
		pumpRecord(m, "r1", time.Now(), 10)
		pumpAlert(m, Alert{Type: AlertEquivocation, ReqID: "r1", Height: 12})
		m.endBlock(12 + blockchain.TxLifetime) // E past the latest event, not past the first
		if got := m.AlertsFor("r1"); len(got) != 1 {
			t.Fatalf("AlertsFor at age E = %v", got)
		}
		m.endBlock(12 + blockchain.TxLifetime + 1)
		if got := m.AlertsFor("r1"); len(got) != 0 {
			t.Fatalf("AlertsFor at age E+1 = %v", got)
		}
		if got := m.Alerts(); len(got) != 0 {
			t.Fatalf("Alerts() = %v", got)
		}
		if len(m.window) != 0 || len(m.queue) != 0 {
			t.Fatalf("%d entries, %d queued after the window passed", len(m.window), len(m.queue))
		}
	})
}
