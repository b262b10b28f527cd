package transport

import (
	"runtime"
	"sync"
)

// Workers runs a backend's delivery work — a link's drainer, a call
// handler — on goroutines that outlive it. Work goes to a parked worker
// when one is idle and to a new goroutine otherwise, so Go never waits for
// a worker: a call handler may block, or call back over the link it
// arrived on, while other handlers run. A worker whose work is done parks
// with the stack it grew, so a handler that needs a deep stack grows it
// once per worker, not once per call.
//
// The zero value is ready to use.
type Workers struct {
	mu sync.Mutex
	// maxIdle bounds the workers kept parked; any beyond it exit when their
	// work is done. No more than GOMAXPROCS workers run at once, so a burst
	// wider than that waits for a processor, not for a goroutine start.
	// Twice that leaves room for the handlers that block (on a nested call,
	// a lock, a link's latency) without keeping a stack for every frame of
	// a burst. It is read from GOMAXPROCS at the first Go, not at package
	// init, so it follows a process that sets GOMAXPROCS after starting.
	maxIdle int
	idle    []chan func() // parked workers, the most recently parked last
	live    int           // workers that have not exited, parked or running
	closed  bool
	exited  chan struct{} // made by Close while workers live, closed by the last
}

// Go runs fn on a parked worker, or on a new goroutine when none is idle,
// and reports whether it started one. After Close it still runs fn, on a
// goroutine that exits once fn returns.
func (w *Workers) Go(fn func()) (started bool) {
	w.mu.Lock()
	if w.maxIdle == 0 {
		w.maxIdle = 2 * runtime.GOMAXPROCS(0)
	}
	if k := len(w.idle) - 1; k >= 0 {
		wake := w.idle[k]
		w.idle[k] = nil
		w.idle = w.idle[:k]
		w.mu.Unlock()
		wake <- fn
		return false
	}
	w.live++
	w.mu.Unlock()
	go w.run(fn)
	return true
}

// run is one worker: fn, then whatever work it is handed while parked.
func (w *Workers) run(fn func()) {
	wake := make(chan func(), 1)
	for fn != nil {
		fn()
		fn = w.park(wake)
	}
}

// park offers the worker for more work and waits for it; nil means exit.
func (w *Workers) park(wake chan func()) func() {
	w.mu.Lock()
	if w.closed || len(w.idle) >= w.maxIdle {
		w.exit()
		w.mu.Unlock()
		return nil
	}
	w.idle = append(w.idle, wake)
	w.mu.Unlock()
	fn := <-wake
	if fn == nil { // woken by Close
		w.mu.Lock()
		w.exit()
		w.mu.Unlock()
	}
	return fn
}

// exit counts a worker out; the caller holds w.mu.
func (w *Workers) exit() {
	w.live--
	if w.live == 0 && w.exited != nil {
		close(w.exited)
		w.exited = nil
	}
}

// Close wakes every parked worker and returns once all workers have exited,
// those still running work included. Work they hand to Go meanwhile runs
// and is waited for too.
func (w *Workers) Close() {
	w.mu.Lock()
	w.closed = true
	idle := w.idle
	w.idle = nil
	if w.live > 0 && w.exited == nil {
		w.exited = make(chan struct{})
	}
	exited := w.exited
	w.mu.Unlock()
	for _, wake := range idle {
		wake <- nil
	}
	if exited != nil {
		<-exited
	}
}
