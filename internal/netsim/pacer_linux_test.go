//go:build linux

package netsim

import (
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"drams/internal/clock"
)

// spinThenIdle sends one frame, keeps a sibling goroutine busy for 500 µs and
// then leaves the process idle: the case in which the runtime's idle poll
// rounds the drainer's timer up to its next millisecond. It returns how long
// the frame took.
func spinThenIdle(send func(), arrived <-chan time.Time) time.Duration {
	start := time.Now()
	send()
	go func() {
		for time.Since(start) < 500*time.Microsecond {
		}
	}()
	return (<-arrived).Sub(start)
}

func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// A frame configured for 1 ms arrives after about 1 ms whatever else the
// process did in the meantime. Without the pacer this reads ~1.65 ms here.
func TestFrameDeliveredWhenDueOnAQuietProcess(t *testing.T) {
	const frames = 200
	// The host's own floor: a bare 1 ms sleep under the same disturbance.
	base := make([]time.Duration, 0, 50)
	for range cap(base) {
		woke := make(chan time.Time, 1)
		base = append(base, spinThenIdle(func() {
			go func() { time.Sleep(time.Millisecond); woke <- time.Now() }()
		}, woke))
	}

	n := New(Config{BaseLatency: time.Millisecond, Seed: 3})
	defer n.Close()
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	arrived := make(chan time.Time, 1)
	b.OnMessage("m", func(string, []byte) { arrived <- time.Now() })
	took := make([]time.Duration, 0, frames)
	for range frames {
		took = append(took, spinThenIdle(func() {
			if err := a.Send("b", "m", nil); err != nil {
				t.Error(err)
			}
		}, arrived))
	}
	got, floor := median(took), median(base)
	t.Logf("1 ms frame: median %v, p90 %v, max %v; bare 1 ms sleep under the same disturbance: median %v",
		got, took[len(took)*9/10], took[len(took)-1], floor)
	if got < time.Millisecond {
		t.Fatalf("median delivery %v is earlier than the configured latency", got)
	}
	if n.pace.f == nil {
		t.Skip("no timerfd on this host: frames keep the runtime's timer resolution")
	}
	if quiet := median(bareSleeps(50)); quiet > 1300*time.Microsecond {
		t.Skipf("host wakes a bare 1 ms sleep on an idle process after %v: too coarse to hold 1.25 ms", quiet)
	}
	if got > 1250*time.Microsecond {
		t.Fatalf("median delivery of a 1 ms frame = %v, want ≤ 1.25 ms", got)
	}
}

// bareSleeps times n undisturbed 1 ms sleeps.
func bareSleeps(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		start := time.Now()
		time.Sleep(time.Millisecond)
		out[i] = time.Since(start)
	}
	return out
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list descriptors: %v", err)
	}
	return len(ents)
}

// Tier-1 opens hundreds of networks: Close must give the timerfd back, and
// the pacer has no goroutine to leave behind.
func TestCloseReleasesTheTimerfd(t *testing.T) {
	opened := 0
	cycle := func() {
		n := New(Config{BaseLatency: time.Millisecond, Seed: 4})
		a, _ := n.Register("a")
		b, _ := n.Register("b")
		got := make(chan struct{}, 1)
		b.OnMessage("m", func(string, []byte) { got <- struct{}{} })
		if err := a.Send("b", "m", nil); err != nil {
			t.Fatal(err)
		}
		<-got
		if n.pace.f != nil {
			opened++
		}
		n.Close()
		// A frame after Close is refused; the pacer stays shut.
		_ = a.Send("b", "m", nil)
		n.pace.sleeping(time.Now().Add(time.Millisecond))
		if n.pace.f != nil {
			t.Fatal("pacer reopened after Close")
		}
	}
	cycle() // the runtime's own epoll descriptors exist from here on
	fds, goroutines := openFDs(t), runtime.NumGoroutine()
	for range 100 {
		cycle()
	}
	if opened == 0 {
		t.Skip("no timerfd on this host")
	}
	if after := openFDs(t); after > fds {
		t.Fatalf("descriptors: %d before, %d after 100 open/close cycles (%d opened a timerfd)", fds, after, opened)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after 100 open/close cycles", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// A zero-latency network, and one on a mock clock, never create a timerfd.
func TestPacerOnlyForTimedFramesOnTheSystemClock(t *testing.T) {
	n := New(Config{Seed: 5})
	defer n.Close()
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	got := make(chan struct{}, 1)
	b.OnMessage("m", func(string, []byte) { got <- struct{}{} })
	if err := a.Send("b", "m", nil); err != nil {
		t.Fatal(err)
	}
	<-got
	if n.pace == nil || n.pace.f != nil {
		t.Fatalf("zero-latency network: pacer %+v, want one that was never opened", n.pace)
	}
	m := New(Config{BaseLatency: time.Millisecond, Seed: 5, Clock: clock.NewMock(time.Unix(0, 0))})
	defer m.Close()
	if m.pace != nil {
		t.Fatal("network on a mock clock has a pacer")
	}
}
