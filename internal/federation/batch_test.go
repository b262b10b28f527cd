package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"drams/internal/netsim"
	"drams/internal/xacml"
)

func batchReqs(n int) []*xacml.Request {
	reqs := make([]*xacml.Request, n)
	for i := range reqs {
		role := "doctor"
		if i%2 == 1 {
			role = "intern"
		}
		reqs[i] = docReq(fmt.Sprintf("r%d", i), role)
	}
	return reqs
}

// A DecideBatch of n is one round trip: one ac.evalBatch call and its reply,
// where n sequential Decides send 2n messages. Every batched decision equals
// the sequential one.
func TestDecideBatchIsOneRoundTrip(t *testing.T) {
	const n = 64
	ctx := context.Background()
	batchEnv, _ := newACEnv(t)
	batched, err := batchEnv.pep.DecideBatch(ctx, batchReqs(n))
	if err != nil {
		t.Fatal(err)
	}
	seqEnv, _ := newACEnv(t)
	for i, req := range batchReqs(n) {
		enf, err := seqEnv.pep.Decide(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if batched[i].Decision != enf.Decision {
			t.Fatalf("item %d: batch %s, sequential %s", i, batched[i].Decision, enf.Decision)
		}
	}
	if sent := batchEnv.net.Stats().Sent; sent != 2 {
		t.Fatalf("DecideBatch of %d sent %d messages, want 2", n, sent)
	}
	if sent := seqEnv.net.Stats().Sent; sent != 2*n {
		t.Fatalf("%d Decides sent %d messages, want %d", n, sent, 2*n)
	}
}

// A failure inside the envelope stays where it belongs: one bad item fails
// that item alone; a reply with the wrong count or cut short fails the whole
// pipeline. Either way every probed side is closed exactly once.
func TestBatchEnvelopeFailures(t *testing.T) {
	const n = 3
	cases := []struct {
		name string
		// arrange installs the failure on a fresh environment.
		arrange  func(t *testing.T, env *acEnv, rec *probeRecorder)
		failed   []bool // per item
		errMatch string
	}{
		{"per-item error", func(t *testing.T, env *acEnv, rec *probeRecorder) {
			env.pep.SetTamper(&Tamper{Batch: func(items [][]byte) [][]byte {
				out := append([][]byte(nil), items...)
				out[1] = []byte(`{"id":"r1"}`)
				return out
			}})
		}, []bool{false, true, false}, "JSON"},
		{"count mismatch", func(t *testing.T, env *acEnv, rec *probeRecorder) {
			env.pep.SetTamper(&Tamper{Batch: func(items [][]byte) [][]byte { return items[:len(items)-1] }})
		}, []bool{true, true, true}, "2 items for 3 requests"},
		{"truncated reply", func(t *testing.T, env *acEnv, rec *probeRecorder) {
			// A stand-in PDP that answers honestly and cuts its reply short.
			net := netsim.New(netsim.Config{Seed: 5})
			t.Cleanup(func() { net.Close() })
			ep, err := net.Register(PDPAddr)
			if err != nil {
				t.Fatal(err)
			}
			pdp := xacml.NewPDP(acPolicy())
			ep.OnCall(kindEvaluateBatch, func(_ string, payload []byte) ([]byte, error) {
				items, err := xacml.DecodeBatch(payload)
				if err != nil {
					return nil, err
				}
				results, errs := make([][]byte, len(items)), make([]error, len(items))
				for i, raw := range items {
					req, err := xacml.DecodeRequest(raw)
					if err != nil {
						return nil, err
					}
					res, _ := pdp.Evaluate(req)
					results[i] = res.Encode()
				}
				reply := xacml.EncodeBatchReply(results, errs)
				return reply[:len(reply)-1], nil
			})
			pep, err := NewPEPService(net, "tenant-1", time.Second)
			if err != nil {
				t.Fatal(err)
			}
			pep.SetProbe(rec)
			env.pep = pep
		}, []bool{true, true, true}, "truncated"},
	}
	for _, c := range cases {
		env, rec := newACEnv(t)
		c.arrange(t, env, rec)
		out, err := env.pep.DecideBatch(context.Background(), batchReqs(n))
		if err == nil || !strings.Contains(err.Error(), c.errMatch) || len(out) != n {
			t.Fatalf("%s: %d results, err = %v, want %q", c.name, len(out), err, c.errMatch)
		}
		wantFailed := 0
		for i, failed := range c.failed {
			want := xacml.Permit
			if i%2 == 1 {
				want = xacml.Deny
			}
			if failed {
				want = xacml.IndeterminateDP
				wantFailed++
			}
			if out[i].Decision != want {
				t.Fatalf("%s: item %d = %s, want %s", c.name, i, out[i].Decision, want)
			}
		}
		opened, closed, twice, pepFailed, _ := rec.sides()
		if opened != closed || twice != 0 || pepFailed != wantFailed {
			t.Fatalf("%s: %d sides opened, %d closed once, %d twice, %d edge sides failed (want %d)",
				c.name, opened, closed, twice, pepFailed, wantFailed)
		}
	}
}

// A value the probe record cannot seal (here a NaN; JSON has none) never
// yields a decision the monitor did not see. The PEP refuses such a request
// before its probe or the PDP sees it, alone or inside a batch, and a wire
// attacker who writes one in is refused by the PDP's decoder, so the
// exchange fails closed with its edge side recorded.
func TestUnsupportedValueIsNeverDecided(t *testing.T) {
	nan := func(id string) *xacml.Request {
		return docReq(id, "doctor").Add(xacml.CatResource, "score", xacml.Float(math.NaN()))
	}

	env, rec := newACEnv(t)
	enf, err := env.pep.Decide(context.Background(), nan("r-nan"))
	if !errors.Is(err, xacml.ErrUnsupportedValue) || enf.Decision != xacml.IndeterminateDP {
		t.Fatalf("Decide: %s, %v", enf.Decision, err)
	}
	if opened, _, _, _, _ := rec.sides(); opened != 0 || env.pdp.Stats().Evaluations != 0 {
		t.Fatalf("Decide: %d sides opened, %d evaluations", opened, env.pdp.Stats().Evaluations)
	}

	reqs := batchReqs(3)
	reqs[1] = nan("r1")
	out, err := env.pep.DecideBatch(context.Background(), reqs)
	if !errors.Is(err, xacml.ErrUnsupportedValue) {
		t.Fatalf("DecideBatch: err = %v", err)
	}
	for i, want := range []xacml.Decision{xacml.Permit, xacml.IndeterminateDP, xacml.Permit} {
		if out[i].Decision != want {
			t.Fatalf("DecideBatch item %d = %s, want %s", i, out[i].Decision, want)
		}
	}
	if opened, closed, _, pepFailed, _ := rec.sides(); opened != 4 || closed != 4 || pepFailed != 0 {
		t.Fatalf("DecideBatch: %d sides opened, %d closed, %d failed", opened, closed, pepFailed)
	}
	if st := env.pep.Stats(); st.Requests != 4 || st.Failures != 2 || st.Permits != 2 {
		t.Fatalf("PEP stats = %+v", st)
	}

	env, rec = newACEnv(t)
	env.pep.SetTamper(&Tamper{Request: func(r *xacml.Request) *xacml.Request {
		return r.Add(xacml.CatResource, "score", xacml.Float(math.NaN()))
	}})
	if _, err := env.pep.Decide(context.Background(), docReq("r-wire", "doctor")); err == nil {
		t.Fatal("a NaN written in on the wire was decided")
	}
	if opened, closed, _, pepFailed, pdpFailed := rec.sides(); opened != 1 || closed != 1 || pepFailed != 1 || pdpFailed != 0 {
		t.Fatalf("wire NaN: %d sides opened, %d closed, %d edge failed, %d PDP failed", opened, closed, pepFailed, pdpFailed)
	}
}
