package federation

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"drams/internal/netsim"
	"drams/internal/xacml"
)

// acplaneGen returns a generator of the benchmark's acplane shape: its
// 8 x 25 policy and requests over the default vocabulary.
func acplaneGen() *xacml.Generator {
	params := xacml.DefaultGenParams()
	params.Policies, params.Rules = 8, 25
	return xacml.NewGenerator(42, params)
}

// An ac.eval allocates little beyond the reply it sends: the request is
// decoded into a pooled one, its IDs included, and the policy walk
// allocates nothing, which leaves the reply's buffer. Here no PEP hands
// reply buffers back, so each call makes one, sized to fit.
func TestEvalAllocBudget(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 4})
	t.Cleanup(func() { net.Close() })
	g := acplaneGen()
	svc, err := NewPDPService(net, xacml.NewPDP(g.PolicySet("acplane", "v1")))
	if err != nil {
		t.Fatal(err)
	}
	payload := g.Request("ac-1").Encode()
	from := PEPAddr("tenant-1")
	if _, err := svc.handleEvaluate(from, payload); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() { _, _ = svc.handleEvaluate(from, payload) })
	t.Logf("handleEvaluate: %.1f allocs/op", n)
	// The race detector makes sync.Pool drop puts at random, so under -race
	// the pooled request is rebuilt on some calls and the count says nothing
	// about the code. The budget holds where the pool keeps what it is given,
	// as the standard library's own allocation tests assume.
	if raceEnabled {
		return
	}
	if n > 6 {
		t.Errorf("handleEvaluate allocates %.1f/op, budget 6", n)
	}
}

// reuseProbe checks that the pooled request a PDP-side observation opened
// with is the same request when its hook runs.
type reuseProbe struct {
	t *testing.T
}

func (p reuseProbe) PDPRequestReceived(req *xacml.Request, origin string) func(xacml.Result, bool) {
	id, canon := req.ID, req.CanonicalBytes()
	return func(res xacml.Result, ok bool) {
		runtime.Gosched() // let another call take a request from the pool
		if req.ID != id || !bytes.Equal(req.CanonicalBytes(), canon) {
			p.t.Errorf("request %s changed under its probe: now %s %q, was %q", id, req.ID, req.CanonicalBytes(), canon)
		}
		if ok && res.RequestID != id {
			p.t.Errorf("request %s answered as %s", id, res.RequestID)
		}
	}
}

// Concurrent ac.eval and ac.evalBatch calls each keep their pooled request
// from decode to the probe's hook, and each is decided on its own content.
func TestPDPRequestReuseRace(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 4})
	t.Cleanup(func() { net.Close() })
	g := acplaneGen()
	policy := g.PolicySet("acplane", "v1")
	svc, err := NewPDPService(net, xacml.NewPDP(policy))
	if err != nil {
		t.Fatal(err)
	}
	svc.SetProbe(reuseProbe{t})
	pep, err := NewPEPService(net, "tenant-1", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 40
	reqs := make([][]*xacml.Request, workers)
	for w := range reqs {
		for i := 0; i < perWorker; i++ {
			reqs[w] = append(reqs[w], g.Request(fmt.Sprintf("w%d-%d", w, i)))
		}
	}
	reference := xacml.NewPDP(policy)
	want := func(r *xacml.Request) xacml.Decision {
		res, err := reference.Evaluate(r)
		if err != nil {
			t.Error(err)
		}
		return res.Decision
	}
	var wg sync.WaitGroup
	for w := range reqs {
		wg.Add(1)
		go func(own []*xacml.Request) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < len(own); i += 4 {
				enf, err := pep.Decide(ctx, own[i])
				if err != nil || enf.Decision != want(own[i]) {
					t.Errorf("%s: decision %s, err %v, want %s", own[i].ID, enf.Decision, err, want(own[i]))
				}
				batch := own[i+1 : i+4]
				out, err := pep.DecideBatch(ctx, batch)
				if err != nil {
					t.Errorf("batch at %s: %v", batch[0].ID, err)
					continue
				}
				for j, r := range batch {
					if out[j].Decision != want(r) {
						t.Errorf("%s: batched decision %s, want %s", r.ID, out[j].Decision, want(r))
					}
				}
			}
		}(reqs[w])
	}
	wg.Wait()
	if got := svc.Stats().Evaluations; got != workers*perWorker {
		t.Fatalf("evaluations = %d, want %d", got, workers*perWorker)
	}
}
