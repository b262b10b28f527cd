package drams_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"drams"
	"drams/internal/blockchain"
	"drams/internal/core"
	"drams/internal/xacml"
)

// logmatchTxs lists, in chain order, the drams.logmatch transactions on the
// chain that concern reqID ("" = all of them), each rendered as its method
// and the record kinds it carries: "logbatch[pep.request pep.response]",
// "logbatch[pdp.request]", "verdict".
func logmatchTxs(t *testing.T, chain *blockchain.Chain, reqID string) []string {
	t.Helper()
	var out []string
	for h := uint64(1); h <= chain.Height(); h++ {
		b, ok := chain.BlockByHeight(h)
		if !ok {
			t.Fatalf("no block at height %d", h)
		}
		for _, tx := range b.Txs {
			if tx.Call.Contract != core.ContractName {
				continue
			}
			var recs []core.LogRecord
			switch tx.Call.Method {
			case core.MethodLogBatch:
				lb, err := core.DecodeLogBatch(tx.Call.Args)
				if err != nil {
					t.Fatal(err)
				}
				recs = lb.Records
			case core.MethodVerdict:
				v, err := core.DecodeVerdict(tx.Call.Args)
				if err != nil {
					t.Fatal(err)
				}
				if reqID == "" || v.ReqID == reqID {
					out = append(out, tx.Call.Method)
				}
				continue
			}
			var kinds []string
			for _, rec := range recs {
				if reqID == "" || rec.ReqID == reqID {
					kinds = append(kinds, string(rec.Kind))
				}
			}
			if kinds != nil {
				out = append(out, fmt.Sprintf("%s[%s]", tx.Call.Method, strings.Join(kinds, " ")))
			}
		}
	}
	return out
}

// An exchange costs three transactions, fixed: one Merkle batch of two
// records per interception side and the analyser's verdict. N exchanges, one
// after the other, put exactly 3N drams.logmatch transactions on the
// producer's best chain — a count read from the blocks, not a timing.
func TestExchangeCostsThreeTransactions(t *testing.T) {
	dep := testDeployment(t)
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		req := doctorRequest(dep)
		if _, err := client.Decide(ctx20(t), req); err != nil {
			t.Fatal(err)
		}
		// Settled before the next starts, so no LI has two sides to merge.
		if err := dep.WaitForMatched(ctx20(t), req.ID); err != nil {
			t.Fatal(err)
		}
		got := logmatchTxs(t, dep.InfraNode().Chain(), req.ID)
		slices.Sort(got)
		want := []string{"logbatch[pdp.request pdp.response]", "logbatch[pep.request pep.response]", "verdict"}
		if !slices.Equal(got, want) {
			t.Fatalf("exchange %d is on chain as %v, want one batch per side and a verdict", i, got)
		}
	}
	if all := logmatchTxs(t, dep.InfraNode().Chain(), ""); len(all) != 3*n {
		t.Fatalf("%d exchanges put %d drams.logmatch transactions on chain, want %d: %v", n, len(all), 3*n, all)
	}
}

// downEvaluator models a PDP whose decision engine fails.
type downEvaluator struct{}

func (downEvaluator) Evaluate(*xacml.Request) (xacml.Result, error) {
	return xacml.Result{}, errors.New("evaluator down")
}

// Every way an exchange can end without its response still anchors what was
// observed: the held request-side record goes on chain alone, as a batch of
// one, M3 raises message-suppressed for the exchange after Δ, and the alert
// names the legs that never came — through Decide and through DecideBatch.
func TestFailedExchangeAnchorsItsRequestSideAlone(t *testing.T) {
	const (
		pepAlone = "logbatch[pep.request]"
		pdpAlone = "logbatch[pdp.request]"
		pdpPair  = "logbatch[pdp.request pdp.response]"
	)
	cases := []struct {
		name    string
		arrange func(t *testing.T, dep *drams.Deployment)
		// decideFor bounds the PEP's wait (0 = the test's 20 s context).
		decideFor time.Duration
		want      []string // transactions naming the request, sorted
		missing   []string // legs the alert must name
	}{
		{"drop-request", func(t *testing.T, dep *drams.Deployment) {
			if err := dep.TamperPEP("tenant-1", &drams.Tamper{DropRequest: true}); err != nil {
				t.Fatal(err)
			}
		}, 0, []string{pepAlone}, []string{"pdp.request", "pdp.response", "pep.response"}},
		{"drop-response", func(t *testing.T, dep *drams.Deployment) {
			if err := dep.TamperPEP("tenant-1", &drams.Tamper{DropResponse: true}); err != nil {
				t.Fatal(err)
			}
		}, 0, []string{pdpPair, pepAlone, "verdict"}, []string{"pep.response"}},
		{"call-timeout", func(t *testing.T, dep *drams.Deployment) {
			// The PEP cannot reach the PDP; the chain nodes still talk.
			dep.Net.Partition([]string{"pep@tenant-1"}, []string{"pdp@infrastructure"})
		}, 50 * time.Millisecond, []string{pepAlone}, []string{"pdp.request", "pdp.response", "pep.response"}},
		{"evaluator-error", func(t *testing.T, dep *drams.Deployment) {
			if err := dep.CompromisePDP(func(xacml.Evaluator) xacml.Evaluator { return downEvaluator{} }); err != nil {
				t.Fatal(err)
			}
		}, 0, []string{pdpAlone, pepAlone}, []string{"pdp.response", "pep.response"}},
	}
	for _, c := range cases {
		for _, batch := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/batch=%d", c.name, batch), func(t *testing.T) {
				dep := testDeployment(t)
				client, err := dep.Client("tenant-1")
				if err != nil {
					t.Fatal(err)
				}
				c.arrange(t, dep)
				ctx := ctx20(t)
				if c.decideFor > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, c.decideFor)
					defer cancel()
				}
				reqs := []*xacml.Request{doctorRequest(dep)}
				if batch == 0 {
					_, err = client.Decide(ctx, reqs[0])
				} else {
					for len(reqs) < batch {
						reqs = append(reqs, doctorRequest(dep))
					}
					_, err = client.DecideBatch(ctx, reqs)
				}
				if err == nil {
					t.Fatal("the exchange succeeded")
				}
				for _, req := range reqs {
					alert, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertMessageSuppressed)
					if err != nil {
						t.Fatal(err)
					}
					for _, leg := range c.missing {
						if !strings.Contains(alert.Detail, leg) {
							t.Fatalf("alert %q does not name the missing %s", alert.Detail, leg)
						}
					}
					// The pipeline's lone records queue back to back and may
					// share one batch; only this request's records are named.
					got := logmatchTxs(t, dep.InfraNode().Chain(), req.ID)
					slices.Sort(got)
					if !slices.Equal(got, c.want) {
						t.Fatalf("request %s is on chain as %v, want %v", req.ID, got, c.want)
					}
				}
			})
		}
	}
}
