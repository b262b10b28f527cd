// Package clock provides an injectable time source so that simulations and
// tests can run deterministically while production code uses wall-clock time.
//
// Components throughout DRAMS accept a clock.Clock rather than calling
// time.Now directly; this is what makes multi-node simulations reproducible
// under a fixed seed.
package clock

import (
	"sync"
	"time"
)

// Clock abstracts the passage of time.
type Clock interface {
	// Now reports the current instant.
	Now() time.Time
	// Since reports the elapsed duration from t to Now.
	Since(t time.Time) time.Duration
	// Sleep blocks the caller for d (simulated clocks may return instantly
	// after advancing virtual time).
	Sleep(d time.Duration)
	// After returns a channel that delivers the current time after d.
	After(d time.Duration) <-chan time.Time
}

// System is the wall-clock implementation backed by the time package.
type System struct{}

var _ Clock = System{}

// Now implements Clock.
func (System) Now() time.Time { return time.Now() }

// Since implements Clock.
func (System) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (System) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (System) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Mock is a manually advanced clock for deterministic tests. The zero value
// is not usable; construct with NewMock.
type Mock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

var _ Clock = (*Mock)(nil)

// NewMock returns a Mock clock positioned at start.
//
//lint:ignore deadcode test helper: the clock, blockchain and netsim packages' tests drive time with it
func NewMock(start time.Time) *Mock {
	return &Mock{now: start}
}

// Now implements Clock.
func (m *Mock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since implements Clock.
func (m *Mock) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Sleep implements Clock. It returns once virtual time has been advanced past
// the deadline by another goroutine calling Advance.
func (m *Mock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After implements Clock.
func (m *Mock) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		//lint:ignore lockheld buffered channel created one line up with no other sender: the send cannot block
		ch <- m.now
		return ch
	}
	m.waiters = append(m.waiters, &waiter{deadline: m.now.Add(d), ch: ch})
	return ch
}

// Advance moves virtual time forward by d, firing any timers whose deadlines
// are reached.
func (m *Mock) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	remaining := m.waiters[:0]
	var fired []*waiter
	for _, w := range m.waiters {
		if !w.deadline.After(now) {
			fired = append(fired, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()
	for _, w := range fired {
		w.ch <- now
	}
}

// Set jumps virtual time to t (which must not be earlier than the current
// virtual time) and fires reached timers.
func (m *Mock) Set(t time.Time) {
	m.mu.Lock()
	d := t.Sub(m.now)
	m.mu.Unlock()
	if d > 0 {
		m.Advance(d)
	}
}
