package federation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drams/internal/netsim"
	"drams/internal/xacml"
)

// payloadProbe checks that the bytes a PDP handler decoded in place are the
// same when the probe's hook runs as when the request arrived: a PEP that
// reused a request's buffer while the PDP still read it would change them.
type payloadProbe struct {
	t      *testing.T
	hooked atomic.Int64
}

func (p *payloadProbe) PDPRequestReceived(req *xacml.Request, origin string) func(xacml.Result, bool) {
	id, canon := strings.Clone(req.ID), req.CanonicalBytes()
	return func(res xacml.Result, ok bool) {
		runtime.Gosched() // let other decisions take buffers from the free list
		if req.ID != id || !bytes.Equal(req.CanonicalBytes(), canon) {
			p.t.Errorf("request %s changed under the PDP: now %s %q, was %q", id, req.ID, req.CanonicalBytes(), canon)
		}
		if ok && res.RequestID != id {
			p.t.Errorf("request %s answered as %s", id, res.RequestID)
		}
		p.hooked.Add(1)
	}
}

// slowEvaluator holds every request whose ID ends in "-slow" past the PEP's
// timeout, so that its PEP gives up while the PDP still reads the bytes.
type slowEvaluator struct {
	ev   xacml.Evaluator
	hold time.Duration
}

func (s slowEvaluator) Evaluate(r *xacml.Request) (xacml.Result, error) {
	if strings.HasSuffix(r.ID, "-slow") {
		time.Sleep(s.hold)
	}
	return s.ev.Evaluate(r)
}

// Concurrent decisions on one PEP share the free lists of wire buffers:
// each request's buffer, and its reply's, go back once the reply is
// enforced, and only then.
// Some requests are rewritten by a Tamper (re-encoded into a buffer of
// their own), and some time out while the PDP is still reading them; the
// PDP's probe sees every request's bytes unchanged at its hook, and every
// decision that did not time out is its own request's.
func TestPEPPayloadReuseRace(t *testing.T) {
	const timeout = 40 * time.Millisecond
	net := netsim.New(netsim.Config{Seed: 4})
	t.Cleanup(func() { net.Close() })
	g := acplaneGen()
	policy := g.PolicySet("acplane", "v1")
	svc, err := NewPDPService(net, slowEvaluator{ev: xacml.NewPDP(policy), hold: 3 * timeout})
	if err != nil {
		t.Fatal(err)
	}
	probe := &payloadProbe{t: t}
	svc.SetProbe(probe)
	pep, err := NewPEPService(net, "tenant-1", timeout)
	if err != nil {
		t.Fatal(err)
	}
	// Requests whose ID ends in "-tam" gain an attribute on the wire; the
	// rest are re-encoded unchanged. The tamper is on for every other
	// stretch of the run, so pooled and tampered payloads mix.
	tamper := &Tamper{Request: func(r *xacml.Request) *xacml.Request {
		if strings.HasSuffix(r.ID, "-tam") {
			r.Add(xacml.CatEnvironment, "rewritten", xacml.Bool(true))
		}
		return r
	}}
	const workers, perWorker = 6, 24
	reference := xacml.NewPDP(policy)
	var wg sync.WaitGroup
	stop, toggled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(toggled)
		for on := true; ; on = !on {
			if on {
				pep.SetTamper(tamper)
			} else {
				pep.SetTamper(nil)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := range perWorker {
				id := fmt.Sprintf("w%d-%d", w, i)
				switch i % 8 {
				case 3:
					id += "-slow"
				case 5, 6:
					id += "-tam"
				}
				req := g.Request(id)
				enf, err := pep.Decide(ctx, req)
				if strings.HasSuffix(id, "-slow") {
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("%s: err = %v, want context.DeadlineExceeded", id, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", id, err)
					continue
				}
				if strings.HasSuffix(id, "-tam") {
					continue // decided on what the tamper made of it
				}
				want, _ := reference.Evaluate(req)
				if enf.Decision != want.Decision || enf.PolicyVersion != "v1" {
					t.Errorf("%s: enforced %s under %q, want %s under v1", id, enf.Decision, enf.PolicyVersion, want.Decision)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-toggled
	// The slow requests' PDP side ends after their PEP gave up: wait for
	// every hook before the test ends.
	deadline := time.Now().Add(10 * time.Second)
	for probe.hooked.Load() < workers*perWorker && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := probe.hooked.Load(); got != workers*perWorker {
		t.Fatalf("%d probe hooks ran, want %d", got, workers*perWorker)
	}
}
