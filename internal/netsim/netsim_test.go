package netsim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drams/internal/transport"
)

// testNet is a zero-latency network closed when the test ends. Delivery is
// asynchronous: a test waits on a handler's signal for what must arrive,
// and checks what must not arrive, or a count, after Close, which waits for
// every frame in flight.
func testNet(t *testing.T) *Network {
	n := New(Config{Seed: 1})
	t.Cleanup(func() { n.Close() })
	return n
}

// arrived waits for one signal on ch.
func arrived[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never arrived", what)
	}
	var zero T
	return zero
}

func TestRegisterAndSend(t *testing.T) {
	n := testNet(t)
	a, err := n.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	b.OnMessage("ping", func(from string, payload []byte) {
		got <- from + ":" + string(payload)
	})
	if err := a.Send("b", "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if v := arrived(t, got, "ping"); v != "a:hello" {
		t.Fatalf("got %v", v)
	}
}

func TestDuplicateRegister(t *testing.T) {
	n := testNet(t)
	if _, err := n.Register("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register("a"); !errors.Is(err, ErrAddressInUse) {
		t.Fatalf("got %v", err)
	}
}

func TestSendUnknownAddress(t *testing.T) {
	n := testNet(t)
	a, _ := n.Register("a")
	if err := a.Send("ghost", "k", nil); !errors.Is(err, ErrUnknownAddress) {
		t.Fatalf("got %v", err)
	}
}

func TestCallRoundTrip(t *testing.T) {
	n := testNet(t)
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	b.OnCall("add", func(from string, payload []byte) ([]byte, error) {
		return append(payload, '!'), nil
	})
	out, err := a.Call(context.Background(), "b", "add", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "x!" {
		t.Fatalf("got %q", out)
	}
}

func TestCallHandlerError(t *testing.T) {
	n := testNet(t)
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	b.OnCall("fail", func(from string, payload []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	_, err := a.Call(context.Background(), "b", "fail", nil)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v", err)
	}
}

func TestCallNoHandler(t *testing.T) {
	n := testNet(t)
	a, _ := n.Register("a")
	_, _ = n.Register("b")
	_, err := a.Call(context.Background(), "b", "nothing", nil)
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("got %v", err)
	}
}

func TestCallTimeoutOnPartition(t *testing.T) {
	n := New(Config{Seed: 1})
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	b.OnCall("k", func(from string, payload []byte) ([]byte, error) { return nil, nil })
	n.Partition([]string{"a"}, []string{"b"})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, "b", "k", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v", err)
	}
	n.Heal()
	if _, err := a.Call(context.Background(), "b", "k", nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	n.Close()
}

func TestPartitionBlocksSameGroupAllows(t *testing.T) {
	n := testNet(t)
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	c, _ := n.Register("c")
	var bGot, cGot atomic.Int64
	b.OnMessage("m", func(string, []byte) { bGot.Add(1) })
	c.OnMessage("m", func(string, []byte) { cGot.Add(1) })
	bDone := make(chan struct{}, 1)
	b.OnMessage("done", func(string, []byte) { bDone <- struct{}{} })
	n.Partition([]string{"a", "b"}, []string{"c"})
	_ = a.Send("b", "m", nil)
	_ = a.Send("c", "m", nil)
	_ = a.Send("b", "done", nil)
	arrived(t, bDone, "same-group frame")
	n.Close()
	if bGot.Load() != 1 {
		t.Fatal("same-group delivery blocked")
	}
	if cGot.Load() != 0 {
		t.Fatal("cross-partition message delivered")
	}
}

func TestLinkFaultAllDropped(t *testing.T) {
	n := New(Config{Seed: 2})
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	var got atomic.Int64
	b.OnMessage("m", func(string, []byte) { got.Add(1) })
	n.SetLinkFault("a", "b", 1, 0)
	for i := 0; i < 20; i++ {
		_ = a.Send("b", "m", nil)
	}
	n.Close()
	if got.Load() != 0 {
		t.Fatalf("delivered %d despite a link fault of loss 1", got.Load())
	}
	st := n.Stats()
	if st.Dropped != 20 || st.Sent != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLinkFault(t *testing.T) {
	n := testNet(t)
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	c, _ := n.Register("c")
	var bGot, cGot atomic.Int64
	b.OnMessage("m", func(string, []byte) { bGot.Add(1) })
	c.OnMessage("m", func(string, []byte) { cGot.Add(1) })
	bDone := make(chan struct{}, 1)
	b.OnMessage("done", func(string, []byte) { bDone <- struct{}{} })
	n.SetLinkFault("a", "b", 1.0, 0)
	for i := 0; i < 10; i++ {
		_ = a.Send("b", "m", nil)
		_ = a.Send("c", "m", nil)
	}
	// Loss is decided at send: what the fault dropped is gone before the
	// link is restored, and the marker below is the first frame b can get.
	n.SetLinkFault("a", "b", 0, 0)
	_ = a.Send("b", "m", nil)
	_ = a.Send("b", "done", nil)
	arrived(t, bDone, "frame on the restored link")
	n.Close()
	if bGot.Load() != 1 {
		t.Fatalf("faulted link delivered %d frames, want only the 1 sent after the fault was cleared", bGot.Load())
	}
	if cGot.Load() != 10 {
		t.Fatalf("unfaulted link delivered %d", cGot.Load())
	}
}

func TestAsyncLatencyDelivery(t *testing.T) {
	n := New(Config{BaseLatency: 5 * time.Millisecond, Jitter: 5 * time.Millisecond, Seed: 3})
	defer n.Close()
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	done := make(chan time.Time, 1)
	b.OnMessage("m", func(string, []byte) { done <- time.Now() })
	start := time.Now()
	_ = a.Send("b", "m", nil)
	select {
	case at := <-done:
		if at.Sub(start) < 4*time.Millisecond {
			t.Fatalf("delivered too fast: %v", at.Sub(start))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
	}
}

func TestUnregisterStopsDelivery(t *testing.T) {
	n := testNet(t)
	a, _ := n.Register("a")
	_, _ = n.Register("b")
	n.Unregister("b")
	if err := a.Send("b", "m", nil); !errors.Is(err, ErrUnknownAddress) {
		t.Fatalf("got %v", err)
	}
}

func TestNetworkCloseRejectsTraffic(t *testing.T) {
	n := New(Config{Seed: 1})
	a, _ := n.Register("a")
	_, _ = n.Register("b")
	n.Close()
	if err := a.Send("b", "m", nil); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("got %v", err)
	}
	if _, err := n.Register("c"); !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("register after close: %v", err)
	}
}

func TestConcurrentTraffic(t *testing.T) {
	n := New(Config{Seed: 9})
	defer n.Close()
	recv := make([]transport.Endpoint, 4)
	var count atomic.Int64
	for i := range recv {
		ep, err := n.Register(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		ep.OnMessage("m", func(string, []byte) { count.Add(1) })
		recv[i] = ep
	}
	var wg sync.WaitGroup
	const msgs = 200
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for j := 0; j < msgs; j++ {
				dst := (src + 1 + j%3) % 4
				_ = recv[src].Send(string(rune('a'+dst)), "m", []byte{byte(j)})
			}
		}(i)
	}
	wg.Wait()
	n.Close() // waits for in-flight deliveries
	if got := count.Load(); got != 4*msgs {
		t.Fatalf("delivered %d, want %d", got, 4*msgs)
	}
}

func TestSeededDropPatternDeterministic(t *testing.T) {
	// Two networks with identical seeds must drop exactly the same
	// messages — the property that makes whole-simulation runs
	// reproducible.
	pattern := func(seed uint64) []bool {
		n := New(Config{Seed: seed})
		a, _ := n.Register("a")
		b, _ := n.Register("b")
		n.SetLinkFault("a", "b", 0.5, 0)
		got := make([]bool, 100)
		// The link hands b one frame at a time: the handler needs no lock.
		b.OnMessage("m", func(_ string, payload []byte) { got[payload[0]] = true })
		for i := range got {
			_ = a.Send("b", "m", []byte{byte(i)})
		}
		n.Close()
		return got
	}
	p1, p2 := pattern(77), pattern(77)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("drop pattern diverged at message %d", i)
		}
	}
	// A different seed should give a different pattern (overwhelmingly).
	p3 := pattern(78)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func TestStatsBytes(t *testing.T) {
	n := testNet(t)
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	got := make(chan struct{}, 1)
	b.OnMessage("m", func(string, []byte) { got <- struct{}{} })
	_ = a.Send("b", "m", make([]byte, 100))
	arrived(t, got, "frame")
	n.Close()
	if st := n.Stats(); st.Bytes != 100 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// The tests below pin the per-link delivery queue: send order on a link
// whatever the jitter, latency as a floor, and the same per-frame fault
// rules as before (partition decided at send, a vanished receiver at
// delivery).

func TestLinkDeliversInSendOrderUnderJitter(t *testing.T) {
	const base, frames = 200 * time.Microsecond, 500
	n := New(Config{BaseLatency: base, Jitter: 2 * time.Millisecond, Seed: 11})
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	sent := make([]time.Time, frames)
	var handled int
	var misordered, early []int
	b.OnMessage("m", func(_ string, payload []byte) {
		// One frame at a time: the handler needs no lock of its own.
		i := int(payload[0])<<8 | int(payload[1])
		if i != handled {
			misordered = append(misordered, i)
		}
		if time.Since(sent[i]) < base {
			early = append(early, i)
		}
		handled++
	})
	for i := 0; i < frames; i++ {
		sent[i] = time.Now()
		if err := a.Send("b", "m", []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n.Close() // waits for queued frames
	if handled != frames {
		t.Fatalf("handled %d of %d frames", handled, frames)
	}
	if len(misordered) > 0 {
		t.Fatalf("%d frames handled out of send order, first %d", len(misordered), misordered[0])
	}
	if len(early) > 0 {
		t.Fatalf("%d frames delivered before BaseLatency had passed, first %d", len(early), early[0])
	}
}

func TestLinksDoNotWaitForEachOther(t *testing.T) {
	n := New(Config{Seed: 12})
	defer n.Close()
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	c, _ := n.Register("c")
	release := make(chan struct{})
	got := make(chan string, 2)
	b.OnMessage("m", func(from string, _ []byte) {
		if from == "a" {
			<-release
		}
		got <- from
	})
	_ = a.Send("b", "m", nil)
	_ = c.Send("b", "m", nil)
	select {
	case from := <-got:
		if from != "c" {
			t.Fatalf("handled %q first, want c", from)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("c->b waited for a->b's handler")
	}
	close(release)
	<-got
}

func TestQueuedFramesAcrossPartitionAndCrash(t *testing.T) {
	n := New(Config{BaseLatency: 20 * time.Millisecond, Seed: 13})
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	c, _ := n.Register("c")
	var bGot, cGot atomic.Int64
	b.OnMessage("m", func(string, []byte) { bGot.Add(1) })
	c.OnMessage("m", func(string, []byte) { cGot.Add(1) })
	for i := 0; i < 5; i++ {
		_ = a.Send("b", "m", nil)
		_ = a.Send("c", "m", nil)
	}
	// The partition is decided at send, the receiver at delivery: frames
	// already on the a->b link still arrive, frames on a->c find c's
	// process gone (its address unregistered) and are dropped.
	n.Partition([]string{"a"}, []string{"b"})
	n.Unregister("c")
	_ = a.Send("b", "m", nil) // sent into the partition: lost
	n.Close()
	if got := bGot.Load(); got != 5 {
		t.Fatalf("b handled %d frames queued before the partition, want 5", got)
	}
	if got := cGot.Load(); got != 0 {
		t.Fatalf("unregistered c handled %d queued frames, want 0", got)
	}
	if st := n.Stats(); st.Dropped != 6 || st.Delivered != 5 {
		t.Fatalf("stats = %+v, want 6 dropped (5 at the unregistered endpoint, 1 at the partition) and 5 delivered", st)
	}
}

// draining counts the links of n that have a drainer.
func draining(n *Network) int {
	count := 0
	for _, addr := range n.Addresses() {
		n.state.Lock()
		ep := n.state.endpoints[addr]
		n.state.Unlock()
		ep.mu.RLock()
		for _, l := range ep.out {
			l.mu.Lock()
			if l.draining {
				count++
			}
			l.mu.Unlock()
		}
		ep.mu.RUnlock()
	}
	return count
}

// After traffic an idle network holds no drainer, only parked workers, and
// no more of them than transport.Workers' idle bound (twice GOMAXPROCS)
// even after a burst that needed many more at once; Close ends them all.
func TestIdleLinkKeepsNoGoroutine(t *testing.T) {
	const burst = 64
	n := New(Config{BaseLatency: time.Millisecond, Seed: 14})
	defer n.Close()
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	var got, entered atomic.Int64
	all := make(chan struct{})
	b.OnMessage("m", func(string, []byte) { got.Add(1) })
	b.OnCall("c", func(string, []byte) ([]byte, error) { return nil, nil })
	b.OnCall("wide", func(string, []byte) ([]byte, error) {
		if entered.Add(1) == burst {
			close(all)
		}
		<-all
		return nil, nil
	})
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_ = a.Send("b", "m", nil)
	}
	if _, err := a.Call(context.Background(), "b", "c", nil); err != nil {
		t.Fatal(err)
	}
	var callers sync.WaitGroup
	for i := 0; i < burst; i++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := a.Call(ctx, "b", "wide", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	callers.Wait()
	if t.Failed() {
		return
	}
	bound := 2 * runtime.GOMAXPROCS(0)
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() != 50 || draining(n) > 0 || runtime.NumGoroutine()-before > bound {
		if time.Now().After(deadline) {
			t.Fatalf("handled %d of 50, %d links draining, %d goroutines against %d before the traffic (idle bound %d)",
				got.Load(), draining(n), runtime.NumGoroutine(), before, bound)
		}
		time.Sleep(time.Millisecond)
	}
	if started := n.started.Load(); started < burst {
		t.Fatalf("the burst of %d blocked calls started %d workers", burst, started)
	}
	n.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close against %d before the traffic", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// A zero-latency Call is one hand-off to a parked worker, which runs the
// handler and drains the reply's link: once the first call has left a
// worker parked, no call starts a goroutine. On one P the order is fixed: a
// woken goroutine runs when the waker blocks, so the worker has parked
// before the caller sends again; on more Ps a caller may occasionally get in
// first and start a second worker, which then parks too.
func TestCallStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := New(Config{Seed: 15})
	defer n.Close()
	a, _ := n.Register("a")
	b, _ := n.Register("b")
	b.OnCall("echo", func(_ string, payload []byte) ([]byte, error) { return payload, nil })
	call := func() {
		if out, err := a.Call(context.Background(), "b", "echo", []byte("x")); err != nil || string(out) != "x" {
			t.Fatalf("call = %q, %v", out, err)
		}
	}
	call()
	warm := n.started.Load()
	for range 1000 {
		call()
	}
	if started := n.started.Load() - warm; started != 0 {
		t.Fatalf("1000 sequential calls after a warm-up started %d goroutines (warm-up: %d)", started, warm)
	}
}
