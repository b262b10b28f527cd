package drams_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"drams"
	"drams/internal/transport/tcp"
	"drams/internal/xacml"
)

// decideAllocCeiling is what one Decide may allocate after warm-up with
// monitoring off, by backend; tcp is one transport on loopback, so the call
// stays off the socket. Before the PEP encoded into pooled buffers and the
// transport checked deadlines on one timer per endpoint, a Decide made 14
// allocations (1 178 B) on netsim and 13 on tcp.
var decideAllocCeiling = map[string]float64{
	"netsim": 0,
	"tcp":    0,
}

// An unmonitored decision, from Client.Decide to the enforced outcome,
// allocates nothing on netsim or on one tcp transport: the PEP encodes into
// a pooled buffer, the transport reuses the call's frames and reply slot
// and checks the PEP's deadline on the endpoint's own timer, and the PDP
// decodes in place and encodes its reply into a pooled buffer the PEP hands
// back. The policy is acplane's 8 x 25 and the requests are pooled with
// their IDs made in advance, so what is counted is the decision path alone.
func TestDecideAllocBudget(t *testing.T) {
	for _, backend := range []string{"netsim", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			params := xacml.DefaultGenParams()
			params.Policies, params.Rules = 8, 25
			g := xacml.NewGenerator(42, params)
			opts := []drams.Option{
				drams.WithMonitoring(false),
				drams.WithDifficulty(4),
				drams.WithEmptyBlockInterval(time.Hour),
				drams.WithSeed(42),
			}
			if backend == "tcp" {
				tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tr.Close() })
				opts = append(opts, drams.WithTransport(tr))
			}
			dep, err := drams.Open(g.PolicySet("acplane", "v1"), opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(dep.Close)
			client, err := dep.Client("tenant-1")
			if err != nil {
				t.Fatal(err)
			}
			reqs := make([]*xacml.Request, 16)
			for i := range reqs {
				reqs[i] = g.Request(fmt.Sprintf("alloc-%d", i))
			}
			ctx := context.Background()
			next := 0
			decide := func() {
				if _, err := client.Decide(ctx, reqs[next%len(reqs)]); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for range 200 {
				decide()
			}
			n := testing.AllocsPerRun(2000, decide)
			t.Logf("%s: %.0f allocations per Decide", backend, n)
			// The race detector makes sync.Pool drop puts at random, so the
			// count says nothing about the code under -race.
			if raceEnabled {
				return
			}
			if max := decideAllocCeiling[backend]; n > max {
				t.Errorf("a Decide on %s allocates %.0f times, ceiling %.0f", backend, n, max)
			}
		})
	}
}
