package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// callSeq numbers the calls of the process, for the high half of their
// correlation IDs: an endpoint registered again under an address gets a new
// table, and a late reply to the old one's call must not match the new
// one's.
var callSeq atomic.Uint64

// Calls is one endpoint's table of outstanding calls, for the backends: a
// reply slot per call in flight, found again by the call's correlation ID,
// and the deadlines of all of them checked on one timer, so a call arms no
// timer and starts no goroutine of its own.
//
// A slot is reused by a later call once its call has ended with a reply:
// by then the peer's handler has returned, so nothing reads the frames the
// backend keeps in the slot. A call that ends any other way (its deadline,
// the end of its ctx, a send error, Close) leaves its slot to the garbage
// collector, because its frames may still be queued or handled. The
// correlation ID names the slot and the call, so a reply that arrives after
// its call ended finds the slot idle or taken by another call and is
// dropped: it never lands in a later call.
//
// The zero value is ready to use. F is what the backend keeps per slot.
type Calls[F any] struct {
	mu      sync.Mutex
	slots   []*Slot[F] // by index; a correlation ID's low half is index+1
	free    []uint32   // indices of idle slots
	timer   *time.Timer
	due     time.Time // when timer fires; zero while it is not armed
	stopped bool
}

// Slot is the reply slot of one call.
type Slot[F any] struct {
	// Frames is the backend's per-slot storage, reused with the slot.
	Frames F

	corr     uint64
	deadline time.Time     // zero: the call is bounded by its ctx alone
	done     chan struct{} // one value once the call ended: reply or deadline
	ended    bool          // the reply or the deadline landed; nothing more does
	expired  bool
	reply    []byte
	remote   string // the handler's error text
}

// Corr returns the correlation ID of the slot's call.
func (s *Slot[F]) Corr() uint64 { return s.corr }

// Open takes a slot for a new call whose deadline is timeout from now
// (none when timeout is 0). The caller sends the request with the slot's
// Corr, then ends the call with Wait, or with Abandon when the send failed.
func (c *Calls[F]) Open(timeout time.Duration) *Slot[F] {
	c.mu.Lock()
	defer c.mu.Unlock()
	var idx uint32
	if k := len(c.free) - 1; k >= 0 {
		idx, c.free = c.free[k], c.free[:k]
	} else {
		idx = uint32(len(c.slots))
		c.slots = append(c.slots, newSlot[F]())
	}
	s := c.slots[idx]
	s.corr = callSeq.Add(1)<<32 | uint64(idx+1)
	if timeout > 0 {
		s.deadline = time.Now().Add(timeout)
		// Calls of one timeout have rising deadlines: only a call that
		// finds the timer idle, or a shorter timeout, moves it.
		if c.due.IsZero() || s.deadline.Before(c.due) {
			c.arm(s.deadline)
		}
	}
	return s
}

func newSlot[F any]() *Slot[F] { return &Slot[F]{done: make(chan struct{}, 1)} }

// Deliver hands the reply of call corr to its slot; a reply whose call is
// no longer waiting is dropped. remote is the handler's error text ("" on
// success).
func (c *Calls[F]) Deliver(corr uint64, reply []byte, remote string) {
	idx := uint64(uint32(corr)) - 1
	c.mu.Lock()
	if idx >= uint64(len(c.slots)) {
		c.mu.Unlock()
		return
	}
	s := c.slots[idx]
	if s.corr != corr || s.ended {
		c.mu.Unlock()
		return
	}
	s.reply, s.remote, s.ended = reply, remote, true
	c.mu.Unlock()
	// ended makes this the slot's one send, and the slot is reused only
	// after Wait received it: the send never blocks, and never reaches a
	// later call.
	s.done <- struct{}{}
}

// Wait ends the call of s: it returns the reply, or the handler's error
// text as remote, once the reply arrived; context.DeadlineExceeded when the
// deadline Open set passed first; ctx's error when ctx ended first; and
// ErrClosed when closing was closed first. The slot goes back to the table.
func (c *Calls[F]) Wait(ctx context.Context, s *Slot[F], closing <-chan struct{}) (reply []byte, remote string, err error) {
	select {
	case <-s.done:
		if s.expired {
			c.release(s, false)
			return nil, "", context.DeadlineExceeded
		}
		reply, remote = s.reply, s.remote
		c.release(s, true)
		return reply, remote, nil
	case <-ctx.Done():
		c.release(s, false)
		return nil, "", ctx.Err()
	case <-closing:
		c.release(s, false)
		return nil, "", ErrClosed
	}
}

// Abandon ends the call of s without waiting, after its send failed.
func (c *Calls[F]) Abandon(s *Slot[F]) { c.release(s, false) }

// release returns s's index to the table. With reuse the slot keeps its
// frames for the next call; otherwise a fresh slot takes its place.
func (c *Calls[F]) release(s *Slot[F], reuse bool) {
	idx := uint32(s.corr) - 1
	c.mu.Lock()
	defer c.mu.Unlock()
	if reuse {
		s.corr, s.deadline, s.ended, s.reply, s.remote = 0, time.Time{}, false, nil, ""
	} else {
		c.slots[idx] = newSlot[F]()
	}
	c.free = append(c.free, idx)
}

// arm sets the timer to fire at at; the caller holds c.mu.
func (c *Calls[F]) arm(at time.Time) {
	if c.stopped {
		return
	}
	c.due = at
	if c.timer == nil {
		c.timer = time.AfterFunc(time.Until(at), c.expire)
		return
	}
	c.timer.Reset(time.Until(at))
}

// expire ends every call whose deadline has passed and sets the timer for
// the earliest deadline left.
func (c *Calls[F]) expire() {
	c.mu.Lock()
	c.due = time.Time{}
	now := time.Now()
	var next time.Time
	var ended []*Slot[F]
	for _, s := range c.slots {
		if s.corr == 0 || s.ended || s.deadline.IsZero() {
			continue
		}
		if !s.deadline.After(now) {
			s.ended, s.expired = true, true
			ended = append(ended, s)
		} else if next.IsZero() || s.deadline.Before(next) {
			next = s.deadline
		}
	}
	if !next.IsZero() {
		c.arm(next)
	}
	c.mu.Unlock()
	for _, s := range ended {
		s.done <- struct{}{} // the slot's one send, as in Deliver
	}
}

// Stop disarms the timer for good, when the backend closes: a call still
// waiting ends by its ctx or by the backend's close.
func (c *Calls[F]) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	if c.timer != nil {
		c.timer.Stop()
	}
}
