package core

import (
	"fmt"
	"testing"

	"drams/internal/crypto"
)

// exchangeCalls are the transactions of one clean exchange: the four probe
// records, each with the provenance fields and a sealed payload the size the
// LI produces, then the analyser's verdict. records holds them as four log
// calls; batches as the fleet anchors them, one two-record logbatch per
// interception side (PEP side first, PDP side second).
type exchangeCalls struct {
	records [4][]byte
	batches [2][]byte
	verdict []byte
}

func benchExchange(tb testing.TB, reqID string) exchangeCalls {
	x := cleanExchange(reqID)
	payload := make([]byte, 640)
	for i := range payload {
		payload[i] = byte(i)
	}
	recs := []LogRecord{x.pepRequest(), x.pdpRequest(), x.pdpResponse(), x.pepResponse(x.decision)}
	var calls exchangeCalls
	for i := range recs {
		recs[i].TraceID = crypto.Sum([]byte(reqID)).Short()
		recs[i].TimestampUnixNano = 1712345678901234567
		recs[i].Payload = payload
		calls.records[i] = recs[i].Encode()
	}
	for i, side := range [][]LogRecord{{recs[0], recs[3]}, {recs[1], recs[2]}} {
		lb, err := NewLogBatch(side)
		if err != nil {
			tb.Fatal(err)
		}
		calls.batches[i] = lb.Encode()
	}
	calls.verdict = x.verdict(x.decision).Encode()
	return calls
}

// run applies the exchange record by record and reports whether it ended in
// a Matched event.
func (c exchangeCalls) run(env *matchEnv) bool {
	env.mustCall("li-t1", MethodLog, c.records[0])
	env.mustCall("li-infra", MethodLog, c.records[1])
	env.mustCall("li-infra", MethodLog, c.records[2])
	env.mustCall("li-t1", MethodLog, c.records[3])
	return hasEvent(env.mustCall("analyser", MethodVerdict, c.verdict), EventMatched)
}

// runBatched applies it as the fleet sends it: the PDP side's batch, the PEP
// side's, then the verdict.
func (c exchangeCalls) runBatched(env *matchEnv) bool {
	env.mustCall("li-infra", MethodLogBatch, c.batches[1])
	env.mustCall("li-t1", MethodLogBatch, c.batches[0])
	return hasEvent(env.mustCall("analyser", MethodVerdict, c.verdict), EventMatched)
}

func benchmarkExchange(b *testing.B, run func(exchangeCalls, *matchEnv) bool) {
	env := newMatchEnv(b, defaultCfg())
	env.anchorPolicy("v1")
	calls := make([]exchangeCalls, b.N)
	for i := range calls {
		calls[i] = benchExchange(b, fmt.Sprintf("req-bench-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range calls {
		if !run(calls[i], env) {
			b.Fatal("exchange did not match")
		}
	}
}

// BenchmarkLogMatchExchange runs whole exchanges through the contract, record
// by record: five Execute calls, each ending in a pass of the checks over
// what state holds of the request so far. ns/op and allocs/op are per
// exchange.
func BenchmarkLogMatchExchange(b *testing.B) { benchmarkExchange(b, exchangeCalls.run) }

// BenchmarkLogMatchExchangeBatched runs them in the fleet's shape: two
// two-record batches and the verdict.
func BenchmarkLogMatchExchangeBatched(b *testing.B) { benchmarkExchange(b, exchangeCalls.runBatched) }

// TestLogMatchExchangeAllocBudget keeps JSON off the record path. Each call
// of an exchange re-runs the checks over what state holds of the request, and
// each record is decoded once from its args and hashed as it lies. While
// state held the JSON records an exchange cost 558 allocations (90 KB,
// 860 us); with rows and JSON args it cost 394 (31.6 KB, ~150 us), nearly all
// of them the argument decodes and re-encodes. With binary records it costs
// 246 (19.0 KB, ~58 us) record by record and 240 (20.0 KB) as two batches and
// a verdict. The budgets are those counts plus the room the race detector
// takes: a JSON decode of the args, or a re-encode for the leaf or the row
// hash, exceeds them.
func TestLogMatchExchangeAllocBudget(t *testing.T) {
	const runs = 50
	for _, v := range []struct {
		name   string
		run    func(exchangeCalls, *matchEnv) bool
		budget float64
	}{
		{"log", exchangeCalls.run, 275},
		{"logbatch", exchangeCalls.runBatched, 270},
	} {
		t.Run(v.name, func(t *testing.T) {
			env := newMatchEnv(t, defaultCfg())
			env.anchorPolicy("v1")
			calls := make([]exchangeCalls, runs+1) // AllocsPerRun warms up with one extra call
			for i := range calls {
				calls[i] = benchExchange(t, fmt.Sprintf("req-budget-%d", i))
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if !v.run(calls[next], env) {
					t.Error("exchange did not match")
				}
				next++
			})
			t.Logf("%.0f allocs per exchange", allocs)
			if allocs > v.budget {
				t.Errorf("one exchange allocates %.0f, budget %.0f", allocs, v.budget)
			}
		})
	}
}
