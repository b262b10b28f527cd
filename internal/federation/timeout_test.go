package federation

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"drams/internal/netsim"
	"drams/internal/transport/tcp"
	"drams/internal/xacml"
)

// pepTimeout is the PEP timeout of the silent-PDP tests, and timeoutSlack
// how much later than it a call may end: a loaded host runs the expiry late,
// never early.
const (
	pepTimeout   = 150 * time.Millisecond
	timeoutSlack = 1500 * time.Millisecond
)

// silentPEP returns a PEP with timeout pepTimeout whose PDP never answers:
// on netsim a partition cuts the two apart, on tcp the PDP's handlers on a
// second transport block until the test ends.
func silentPEP(t *testing.T, backend string, timeout time.Duration) *PEPService {
	t.Helper()
	switch backend {
	case "netsim":
		net := netsim.New(netsim.Config{Seed: 4})
		t.Cleanup(func() { net.Close() })
		if _, err := NewPDPService(net, xacml.NewPDP(acPolicy())); err != nil {
			t.Fatal(err)
		}
		pep, err := NewPEPService(net, "tenant-1", timeout)
		if err != nil {
			t.Fatal(err)
		}
		net.Partition([]string{PEPAddr("tenant-1")}, []string{PDPAddr})
		return pep
	case "tcp":
		newTCP := func(peers ...string) *tcp.Transport {
			tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0", Peers: peers})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			return tr
		}
		pdpSide := newTCP()
		pepSide := newTCP(pdpSide.Advertise())
		ep, err := pdpSide.Register(PDPAddr)
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		t.Cleanup(func() { close(release) }) // runs before the transports close
		stuck := func(string, []byte) ([]byte, error) {
			<-release
			return nil, errors.New("released")
		}
		ep.OnCall(kindEvaluate, stuck)
		ep.OnCall(kindEvaluateBatch, stuck)
		pep, err := NewPEPService(pepSide, "tenant-1", timeout)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !slices.Contains(pepSide.Addresses(), PDPAddr) {
			if time.Now().After(deadline) {
				t.Fatal("the PEP's transport never learnt the PDP's address")
			}
			time.Sleep(5 * time.Millisecond)
		}
		return pep
	}
	t.Fatalf("unknown backend %q", backend)
	return nil
}

// decideOrBatch runs one request through Decide, or a batch of two through
// DecideBatch, and returns the error.
func decideOrBatch(ctx context.Context, pep *PEPService, batch bool) error {
	if !batch {
		_, err := pep.Decide(ctx, docReq("r1", "doctor"))
		return err
	}
	_, err := pep.DecideBatch(ctx, []*xacml.Request{docReq("r1", "doctor"), docReq("r2", "intern")})
	return err
}

// A PDP that never answers costs a decision the PEP's own timeout and no
// more, and a caller that gives up first ends the call at once: the PEP's
// deadline and the caller's cancellation both reach the transport, on the
// simulator and over sockets, for single and batched calls.
func TestPEPTimeoutAndCancel(t *testing.T) {
	for _, backend := range []string{"netsim", "tcp"} {
		for _, batch := range []bool{false, true} {
			name := backend + "/decide"
			if batch {
				name = backend + "/batch"
			}
			t.Run(name+"/timeout", func(t *testing.T) {
				pep := silentPEP(t, backend, pepTimeout)
				start := time.Now()
				err := decideOrBatch(context.Background(), pep, batch)
				took := time.Since(start)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
				if took < pepTimeout || took > pepTimeout+timeoutSlack {
					t.Fatalf("timed out after %v, want %v to %v", took, pepTimeout, pepTimeout+timeoutSlack)
				}
				if st := pep.Stats(); st.Failures == 0 {
					t.Fatalf("a timed-out call is not counted as a failure: %+v", st)
				}
			})
			t.Run(name+"/cancel", func(t *testing.T) {
				const long = 30 * time.Second
				pep := silentPEP(t, backend, long)
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(50*time.Millisecond, cancel)
				start := time.Now()
				err := decideOrBatch(ctx, pep, batch)
				took := time.Since(start)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if took > timeoutSlack {
					t.Fatalf("a cancelled call returned after %v", took)
				}
			})
		}
	}
}
