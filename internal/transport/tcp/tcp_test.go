package tcp

import (
	"bufio"
	"bytes"
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	in := frame{
		typ:     fCall,
		corr:    1<<40 + 7,
		from:    "pep@tenant-1",
		to:      "pdp@infrastructure",
		kind:    "ac.eval",
		errStr:  "",
		payload: []byte("payload-bytes"),
	}
	buf, err := appendFrame(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if out.typ != in.typ || out.corr != in.corr || out.from != in.from ||
		out.to != in.to || out.kind != in.kind || out.errStr != in.errStr ||
		!bytes.Equal(out.payload, in.payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	in := frame{typ: fMsg, payload: make([]byte, maxFrame)}
	if _, err := appendFrame(nil, &in); err == nil {
		t.Fatal("oversize frame encoded")
	}
	var lenBuf [4]byte
	lenBuf[0] = 0xff
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(lenBuf[:]))); err == nil {
		t.Fatal("oversize frame length accepted")
	}
}

// loopReader yields data over and over, so a buffered reader over it reads
// one frame after another without allocating.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// Reading a frame allocates its body and nothing else: its strings and its
// payload alias the body.
func TestReadFrameAllocBudget(t *testing.T) {
	enc, err := appendFrame(nil, &frame{typ: fReply, corr: 9, from: "pdp@infrastructure", to: "pep@tenant-1",
		kind: "ac.eval", errStr: "transport: message dropped", payload: make([]byte, 300)})
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&loopReader{data: enc})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := readFrame(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("readFrame made %.1f allocations per frame, want 1 (the body)", allocs)
	}
}

// The hello that answers an accepted connection travels on another
// connection than the sender's later hellos, so it can arrive after a hello
// read at a later change. Hellos are numbered by the sender's change: one
// read before a change already applied neither forgets nor revives an
// address, and a newer one is authoritative.
func TestStaleRoutingUpdatesDropped(t *testing.T) {
	tr, err := New(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	const node = "127.0.0.1:1"
	known := func(addr string) bool { return slices.Contains(tr.Addresses(), addr) }

	tr.syncAddrs(node, 10, []string{"a", "x"})
	tr.syncAddrs(node, 12, []string{"a", "b"}) // b appeared and x left
	tr.syncAddrs(node, 10, []string{"a", "x"}) // read before both
	if !known("a") || !known("b") || known("x") {
		t.Fatalf("a stale hello rewound the table: %v", tr.Addresses())
	}

	tr.syncAddrs(node, 20, []string{"c"})
	if !known("c") || known("a") || known("b") {
		t.Fatalf("after a hello at 20 listing c: %v", tr.Addresses())
	}
	tr.syncAddrs(node, 21, nil) // a newer hello is authoritative
	if known("c") {
		t.Fatalf("a newer hello did not forget c: %v", tr.Addresses())
	}
}

func waitTrue(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

// TestReconnectAfterPeerRestart proves the persistent-connection machinery:
// when a peer process dies and comes back on the same address, the write
// queue's redial-with-backoff re-establishes the link and traffic flows
// again without any caller intervention.
func TestReconnectAfterPeerRestart(t *testing.T) {
	a, err := New(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	b1, err := New(Config{ListenAddr: "127.0.0.1:0", Peers: []string{a.Advertise()}})
	if err != nil {
		t.Fatal(err)
	}
	bAddr := b1.Advertise()

	epA, err := a.Register("alpha")
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	epA.OnMessage("m", func(string, []byte) { got.Add(1) })
	epA.OnCall("echo", func(from string, p []byte) ([]byte, error) { return p, nil })

	epB1, err := b1.Register("beta")
	if err != nil {
		t.Fatal(err)
	}
	waitTrue(t, 5*time.Second, func() bool {
		for _, x := range b1.Addresses() {
			if x == "alpha" {
				return true
			}
		}
		return false
	}, "b1 learns alpha")
	if err := epB1.Send("alpha", "m", []byte("1")); err != nil {
		t.Fatal(err)
	}
	waitTrue(t, 5*time.Second, func() bool { return got.Load() == 1 }, "first delivery")

	// Kill the peer process and bring a new one up on the same port.
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := New(Config{ListenAddr: bAddr, AdvertiseAddr: bAddr, Peers: []string{a.Advertise()}})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	epB2, err := b2.Register("beta")
	if err != nil {
		t.Fatal(err)
	}
	waitTrue(t, 10*time.Second, func() bool {
		for _, x := range b2.Addresses() {
			if x == "alpha" {
				return true
			}
		}
		return false
	}, "restarted peer learns alpha")

	// Traffic flows again in both directions.
	if err := epB2.Send("alpha", "m", []byte("2")); err != nil {
		t.Fatal(err)
	}
	waitTrue(t, 10*time.Second, func() bool { return got.Load() == 2 }, "delivery after restart")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := epB2.Call(ctx, "alpha", "echo", []byte("ping"))
	if err != nil || string(out) != "ping" {
		t.Fatalf("call after restart = %q, %v", out, err)
	}
}
