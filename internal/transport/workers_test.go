package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parked reads how many workers w keeps parked.
func (w *Workers) parked() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.idle)
}

func waitUntil(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %s", msg)
		}
	}
}

// Work handed over while a worker is parked runs on that worker.
func TestWorkersReuseAParkedWorker(t *testing.T) {
	var w Workers
	defer w.Close()
	done := make(chan struct{})
	if !w.Go(func() { done <- struct{}{} }) {
		t.Fatal("the first work did not start a worker")
	}
	<-done
	waitUntil(t, func() bool { return w.parked() == 1 }, "the worker parks")
	for i := 0; i < 100; i++ {
		if w.Go(func() { done <- struct{}{} }) {
			t.Fatalf("work %d started a goroutine with a worker parked", i)
		}
		<-done
		waitUntil(t, func() bool { return w.parked() == 1 }, "the worker parks again")
	}
}

// A burst wider than the idle bound runs at once; afterwards at most the
// bound stay parked, and Close ends them and waits for work still running.
func TestWorkersParkAtMostTheIdleBoundAndCloseWaits(t *testing.T) {
	var w Workers
	maxIdle := 2 * runtime.GOMAXPROCS(0)
	burst := 3*maxIdle + 1
	var running atomic.Int64
	all := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		w.Go(func() {
			defer wg.Done()
			if running.Add(1) == int64(burst) {
				close(all)
			}
			<-all
		})
	}
	wg.Wait()
	waitUntil(t, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.live == maxIdle && len(w.idle) == maxIdle
	}, "all but the idle bound exit")

	release, finished := make(chan struct{}), make(chan struct{})
	w.Go(func() {
		<-release
		w.Go(func() { close(finished) }) // handed over during Close: still runs
	})
	closed := make(chan struct{})
	go func() {
		w.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while work was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	select {
	case <-finished:
	default:
		t.Fatal("work handed over during Close had not run when Close returned")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.live != 0 || len(w.idle) != 0 {
		t.Fatalf("after Close: %d workers live, %d parked", w.live, len(w.idle))
	}
}
