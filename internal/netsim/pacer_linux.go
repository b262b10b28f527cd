//go:build linux

package netsim

import (
	"os"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// pacer makes the Go runtime look at the drainers' timers when they are due.
// A drainer sleeps on a Go timer, and a process whose last P goes idle with
// less than a millisecond to go on its earliest timer sleeps a whole one
// (runtime.netpoll: "if delay < 1e6 { waitms = 1 }"), so a 1 ms frame on a
// quiet fleet arrives after 1.2–2 ms depending on what else ran in the
// meantime. The pacer keeps one timerfd in the runtime's own epoll set, armed
// for the earliest frame a drainer is asleep on: its expiry ends the idle
// epoll_wait at that instant and the runtime then finds the drainer's timer
// ripe. It delivers nothing and nobody reads it; when the Ps are busy they
// check their timers themselves and the expiry goes unnoticed.
//
// A nil *pacer (any clock but clock.System) does nothing.
type pacer struct {
	mu sync.Mutex
	// f wraps the timerfd so that it sits in the runtime's poller; created
	// on first use, so a zero-latency network never has one.
	f   *os.File
	fd  uintptr
	off bool // timerfd_create failed, or the network closed
	// dues holds the due time of every frame a drainer is asleep on (at most
	// one per link), armed the one of them the timerfd is set for.
	dues  []time.Time
	armed time.Time
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

const (
	clockMonotonic = 1                                      // CLOCK_MONOTONIC, the clock Go timers run on
	tfdFlags       = syscall.O_NONBLOCK | syscall.O_CLOEXEC // TFD_NONBLOCK | TFD_CLOEXEC
)

// sleeping tells the pacer that a drainer is about to sleep until due.
func (p *pacer) sleeping(due time.Time) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil && !p.off {
		fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdFlags, 0)
		if errno != 0 {
			p.off = true // no timerfd here: frames keep the runtime's own timing
		} else {
			// A non-blocking descriptor handed to os.NewFile is registered
			// with the runtime poller, which is all the file is for.
			p.fd, p.f = fd, os.NewFile(fd, "netsim-timerfd")
		}
	}
	if p.off {
		return
	}
	p.dues = append(p.dues, due)
	if p.armed.IsZero() || due.Before(p.armed) {
		p.arm(due)
	}
}

// woke tells the pacer that the drainer asleep until due is running again.
// The one whose frame the timerfd was set for sets it for the next.
func (p *pacer) woke(due time.Time) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.off {
		return
	}
	if i := slices.IndexFunc(p.dues, due.Equal); i >= 0 {
		p.dues = slices.Delete(p.dues, i, i+1)
	}
	if !due.Equal(p.armed) {
		return
	}
	p.armed = time.Time{}
	if len(p.dues) > 0 {
		p.arm(slices.MinFunc(p.dues, time.Time.Compare))
	}
}

// arm sets the timerfd to expire at due. A due already past needs no help:
// its drainer's timer is ripe and runs at the next scheduling point. The
// caller holds p.mu; timerfd_settime does not block, so this is a raw
// system call under a lock on purpose.
func (p *pacer) arm(due time.Time) {
	p.armed = due
	wait := time.Until(due)
	if wait <= 0 {
		return
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(wait))}
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// close releases the timerfd; later calls do nothing.
func (p *pacer) close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.off = true
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
}
