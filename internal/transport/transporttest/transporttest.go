// Package transporttest is the conformance suite every transport backend
// must pass. It pins down the delivery semantics the rest of DRAMS relies
// on — Send/Call behaviour, sentinel errors across the wire, ctx
// cancellation mid-Call, ordered delivery, and safety under concurrent use —
// so that netsim (in-process simulator) and tcp (real sockets) stay
// interchangeable behind transport.Transport.
package transporttest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drams/internal/transport"
)

// Factory builds a universe of n connected transports. For single-process
// backends (netsim) all n entries may be the same Transport; multi-process
// backends return n distinct instances that can reach each other. Cleanup
// is the factory's job (t.Cleanup).
type Factory func(t *testing.T, n int) []transport.Transport

// Run executes the conformance suite against the backend.
func Run(t *testing.T, factory Factory) {
	t.Run("SendDelivers", func(t *testing.T) { testSendDelivers(t, factory) })
	t.Run("SendUnknownAddress", func(t *testing.T) { testSendUnknownAddress(t, factory) })
	t.Run("CallRoundTrip", func(t *testing.T) { testCallRoundTrip(t, factory) })
	t.Run("CallErrors", func(t *testing.T) { testCallErrors(t, factory) })
	t.Run("CallCtxCancelMidCall", func(t *testing.T) { testCallCtxCancel(t, factory) })
	t.Run("CallLateReplyDropped", func(t *testing.T) { testCallLateReplyDropped(t, factory) })
	t.Run("RegisterSemantics", func(t *testing.T) { testRegisterSemantics(t, factory) })
	t.Run("Concurrent", func(t *testing.T) { testConcurrent(t, factory) })
	t.Run("OrderedDelivery", func(t *testing.T) { testOrderedDelivery(t, factory) })
	t.Run("CallReturnsOnClose", func(t *testing.T) { testCallReturnsOnClose(t, factory) })
	t.Run("CallHandlersNeverWaitForAWorker", func(t *testing.T) { testCallHandlersNeverWait(t, factory) })
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

// register binds addr on ts[idx] and waits until every transport in the
// universe can route to it (multi-process backends learn addresses
// asynchronously).
func register(t *testing.T, ts []transport.Transport, idx int, addr string) transport.Endpoint {
	t.Helper()
	ep, err := ts[idx].Register(addr)
	if err != nil {
		t.Fatalf("register %q: %v", addr, err)
	}
	for _, tr := range ts {
		tr := tr
		waitFor(t, 5*time.Second, func() bool {
			for _, a := range tr.Addresses() {
				if a == addr {
					return true
				}
			}
			return false
		}, fmt.Sprintf("address %q visible on every transport", addr))
	}
	return ep
}

func testSendDelivers(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	a := register(t, ts, 0, "a")
	b := register(t, ts, 1%len(ts), "b")

	type got struct {
		from    string
		payload []byte
	}
	ch := make(chan got, 1)
	b.OnMessage("ping", func(from string, payload []byte) {
		ch <- got{from, append([]byte(nil), payload...)}
	})
	if err := a.Send("b", "ping", []byte("hello")); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case g := <-ch:
		if g.from != "a" || !bytes.Equal(g.payload, []byte("hello")) {
			t.Fatalf("got from=%q payload=%q", g.from, g.payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
	st := ts[0].Stats()
	if st.Sent == 0 {
		t.Fatalf("sender stats not counted: %+v", st)
	}
	waitFor(t, 5*time.Second, func() bool { return ts[1%len(ts)].Stats().Delivered > 0 },
		"receiver counted the delivery")
}

func testSendUnknownAddress(t *testing.T, factory Factory) {
	ts := factory(t, 1)
	a := register(t, ts, 0, "a")
	if err := a.Send("nobody", "k", nil); !errors.Is(err, transport.ErrUnknownAddress) {
		t.Fatalf("send to unknown = %v, want ErrUnknownAddress", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := a.Call(ctx, "nobody", "k", nil); !errors.Is(err, transport.ErrUnknownAddress) {
		t.Fatalf("call to unknown = %v, want ErrUnknownAddress", err)
	}
}

func testCallRoundTrip(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	a := register(t, ts, 0, "a")
	b := register(t, ts, 1%len(ts), "b")
	b.OnCall("echo", func(from string, payload []byte) ([]byte, error) {
		return append([]byte(from+":"), payload...), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := a.Call(ctx, "b", "echo", []byte("x"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(out) != "a:x" {
		t.Fatalf("reply = %q, want %q", out, "a:x")
	}
}

func testCallErrors(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	a := register(t, ts, 0, "a")
	b := register(t, ts, 1%len(ts), "b")
	b.OnCall("fail", func(from string, payload []byte) ([]byte, error) {
		return nil, errors.New("boom: handler exploded")
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := a.Call(ctx, "b", "fail", nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("handler error = %v, want boom", err)
	}
	// Calls to a kind with no handler keep their sentinel identity across
	// the wire.
	if _, err := a.Call(ctx, "b", "no-such-kind", nil); !errors.Is(err, transport.ErrNoHandler) {
		t.Fatalf("missing handler = %v, want ErrNoHandler", err)
	}
}

func testCallCtxCancel(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	a := register(t, ts, 0, "a")
	b := register(t, ts, 1%len(ts), "b")
	entered := make(chan struct{})
	release := make(chan struct{})
	b.OnCall("slow", func(from string, payload []byte) ([]byte, error) {
		close(entered)
		<-release
		return []byte("late"), nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(ctx, "b", "slow", nil)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
	cancel() // cancel mid-call, while the handler is still running
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call did not return")
	}
	close(release) // the late reply must not break anything
	time.Sleep(10 * time.Millisecond)
}

// testCallLateReplyDropped: a call that reached its deadline
// (SetCallTimeout) gives its reply slot back, and the reply that comes
// after it is dropped: the next call on the endpoint, which may reuse the
// slot, gets its own reply, never the stale one, even when the stale reply
// lands while that call waits.
func testCallLateReplyDropped(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	a := register(t, ts, 0, "a")
	b := register(t, ts, 1%len(ts), "b")
	for round := range 3 {
		stale, fresh := make(chan struct{}), make(chan struct{})
		closeStale, closeFresh := sync.OnceFunc(func() { close(stale) }), sync.OnceFunc(func() { close(fresh) })
		t.Cleanup(closeStale) // a failed round must not leave a handler blocked
		t.Cleanup(closeFresh)
		b.OnCall("stale", func(string, []byte) ([]byte, error) {
			<-stale
			return []byte("stale"), nil
		})
		b.OnCall("fresh", func(_ string, payload []byte) ([]byte, error) {
			<-fresh
			return append([]byte("fresh-"), payload...), nil
		})
		a.SetCallTimeout(30 * time.Millisecond)
		start := time.Now()
		_, err := a.Call(context.Background(), "b", "stale", nil)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: call past its deadline = %v, want context.DeadlineExceeded", round, err)
		}
		if took := time.Since(start); took < 30*time.Millisecond || took > 5*time.Second {
			t.Fatalf("round %d: the deadline ended the call after %v", round, took)
		}
		a.SetCallTimeout(0)
		want := fmt.Sprintf("fresh-%d", round)
		done := make(chan []byte, 1)
		go func() {
			out, err := a.Call(context.Background(), "b", "fresh", []byte(strconv.Itoa(round)))
			if err != nil {
				t.Errorf("round %d: fresh call: %v", round, err)
			}
			done <- out
		}()
		closeStale() // the stale reply travels while the fresh call waits
		time.Sleep(30 * time.Millisecond)
		select {
		case out := <-done:
			t.Fatalf("round %d: the fresh call returned %q before its handler answered", round, out)
		default:
		}
		closeFresh()
		select {
		case out := <-done:
			if string(out) != want {
				t.Fatalf("round %d: fresh call = %q, want %q", round, out, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: fresh call never returned", round)
		}
	}
}

func testRegisterSemantics(t *testing.T, factory Factory) {
	ts := factory(t, 1)
	ep := register(t, ts, 0, "dup")
	if ep.Addr() != "dup" {
		t.Fatalf("Addr() = %q", ep.Addr())
	}
	if _, err := ts[0].Register("dup"); !errors.Is(err, transport.ErrAddressInUse) {
		t.Fatalf("duplicate register = %v, want ErrAddressInUse", err)
	}
	ts[0].Unregister("dup")
	if _, err := ts[0].Register("dup"); err != nil {
		t.Fatalf("register after unregister: %v", err)
	}
}

func testConcurrent(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	const endpoints = 4
	const workers = 4
	const opsPerWorker = 50

	eps := make([]transport.Endpoint, endpoints)
	var received atomic.Int64
	for i := range eps {
		name := fmt.Sprintf("w%d", i)
		eps[i] = register(t, ts, i%len(ts), name)
		eps[i].OnMessage("m", func(string, []byte) { received.Add(1) })
		eps[i].OnCall("sum", func(from string, payload []byte) ([]byte, error) {
			var s byte
			for _, b := range payload {
				s += b
			}
			return []byte{s}, nil
		})
	}

	var wg sync.WaitGroup
	errCh := make(chan error, endpoints*workers)
	var sent atomic.Int64
	for e := 0; e < endpoints; e++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(e, w int) {
				defer wg.Done()
				src := eps[e]
				for i := 0; i < opsPerWorker; i++ {
					dst := fmt.Sprintf("w%d", (e+1+i%(endpoints-1))%endpoints)
					if i%2 == 0 {
						if err := src.Send(dst, "m", []byte{byte(i)}); err != nil {
							errCh <- fmt.Errorf("send: %w", err)
							return
						}
						sent.Add(1)
					} else {
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						out, err := src.Call(ctx, dst, "sum", []byte{1, 2, byte(i)})
						cancel()
						if err != nil {
							errCh <- fmt.Errorf("call: %w", err)
							return
						}
						if want := byte(3 + byte(i)); out[0] != want {
							errCh <- fmt.Errorf("call result %d, want %d", out[0], want)
							return
						}
					}
				}
			}(e, w)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return received.Load() == sent.Load() },
		fmt.Sprintf("all %d one-way messages delivered", sent.Load()))
}

// testOrderedDelivery pins the delivery contract in transport.Endpoint's
// doc. The three endpoints sit on different transports of the universe, so
// on a multi-process backend every frame here crosses a socket: delivery
// between two endpoints hosted by one tcp.Transport is in-process and makes
// no ordering promise (no chain peer is local to its own transport).
func testOrderedDelivery(t *testing.T, factory Factory) {
	ts := factory(t, 3)
	a := register(t, ts, 0, "a")
	b := register(t, ts, 1%len(ts), "b")
	c := register(t, ts, 2%len(ts), "c")

	// One-way frames a->b reach the handler one at a time, in send order.
	const frames = 2000
	var handled, firstBad atomic.Int64
	firstBad.Store(-1)
	b.OnMessage("seq", func(_ string, payload []byte) {
		want := handled.Load()
		if got := int64(binary.BigEndian.Uint32(payload)); got != want {
			firstBad.CompareAndSwap(-1, want)
		}
		handled.Add(1)
	})
	for i := 0; i < frames; i++ {
		if err := a.Send("b", "seq", binary.BigEndian.AppendUint32(nil, uint32(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return handled.Load() == frames },
		fmt.Sprintf("all %d numbered frames handled", frames))
	if at := firstBad.Load(); at >= 0 {
		t.Fatalf("frames a->b handled out of send order, first at position %d", at)
	}

	// A handler stuck on a's frame holds back a's next frame, not c's.
	entered, release := make(chan struct{}), make(chan struct{})
	got := make(chan string, 3)
	b.OnMessage("gate", func(from string, payload []byte) {
		if from == "a" && len(payload) == 0 {
			close(entered)
			<-release
		}
		got <- from + string(payload)
	})
	for _, payload := range []string{"", "-second"} {
		if err := a.Send("b", "gate", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("slow handler never entered")
	}
	if err := c.Send("b", "gate", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case from := <-got:
		if from != "c" {
			t.Fatalf("handled %q while a's first frame was still in its handler", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("c->b delivery waited for the slow handler of a->b")
	}
	close(release)
	for _, want := range []string{"a", "a-second"} {
		select {
		case from := <-got:
			if from != want {
				t.Fatalf("handled %q, want %q", from, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %q never handled after release", want)
		}
	}

	// A call handler may call back over the link its request arrived on.
	a.OnCall("inner", func(string, []byte) ([]byte, error) { return []byte("inner-ok"), nil })
	b.OnCall("outer", func(from string, payload []byte) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return b.Call(ctx, from, "inner", payload)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := a.Call(ctx, "b", "outer", nil); err != nil || string(out) != "inner-ok" {
		t.Fatalf("nested call = %q, %v", out, err)
	}
}

// testCallReturnsOnClose: closing the caller's transport ends a Call that
// has no deadline, while its handler is still running. Close itself may
// wait for that handler, so it runs beside the test.
func testCallReturnsOnClose(t *testing.T, factory Factory) {
	ts := factory(t, 2)
	a := register(t, ts, 0, "a")
	b := register(t, ts, 1%len(ts), "b")
	entered, release := make(chan struct{}), make(chan struct{})
	b.OnCall("stuck", func(string, []byte) ([]byte, error) {
		close(entered)
		<-release
		return []byte("late"), nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), "b", "stuck", nil)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
	closed := make(chan error, 1)
	go func() { closed <- ts[0].Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("call on a closed transport = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("call still waiting 5 s after its transport closed")
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the handler had")
	}
}

// testCallHandlersNeverWait: many call handlers that block until all of them
// are running, each after a nested call back over the link it arrived on. A
// backend that ran handlers on a fixed number of goroutines would stall.
func testCallHandlersNeverWait(t *testing.T, factory Factory) {
	const calls = 64
	ts := factory(t, 2)
	a := register(t, ts, 0, "a")
	b := register(t, ts, 1%len(ts), "b")
	var running atomic.Int64
	all := make(chan struct{})
	a.OnCall("inner", func(_ string, payload []byte) ([]byte, error) { return payload, nil })
	b.OnCall("barrier", func(from string, payload []byte) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out, err := b.Call(ctx, from, "inner", payload)
		if err != nil {
			return nil, fmt.Errorf("nested call: %w", err)
		}
		if running.Add(1) == calls {
			close(all)
		}
		select {
		case <-all:
			return out, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("%d of %d handlers running: %w", running.Load(), calls, ctx.Err())
		}
	})
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			want := []byte{byte(i)}
			out, err := a.Call(ctx, "b", "barrier", want)
			if err == nil && !bytes.Equal(out, want) {
				err = fmt.Errorf("reply %v, want %v", out, want)
			}
			if err != nil {
				errs <- fmt.Errorf("call %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
