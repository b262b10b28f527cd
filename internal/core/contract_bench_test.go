package core

import (
	"fmt"
	"testing"

	"drams/internal/crypto"
)

// exchangeCalls are the five transactions of one clean exchange, in the
// order the fleet submits them: the four probe records, each with the
// provenance fields and a sealed payload the size the LI produces, then the
// analyser's verdict.
type exchangeCalls struct {
	records [4][]byte
	verdict []byte
}

func benchExchange(reqID string) exchangeCalls {
	x := cleanExchange(reqID)
	payload := make([]byte, 640)
	for i := range payload {
		payload[i] = byte(i)
	}
	var calls exchangeCalls
	for i, rec := range []LogRecord{x.pepRequest(), x.pdpRequest(), x.pdpResponse(), x.pepResponse(x.decision)} {
		rec.TraceID = crypto.Sum([]byte(reqID)).Short()
		rec.TimestampUnixNano = 1712345678901234567
		rec.Payload = payload
		calls.records[i] = rec.Encode()
	}
	calls.verdict = x.verdict(x.decision).Encode()
	return calls
}

// run applies the exchange and reports whether it ended in a Matched event.
func (c exchangeCalls) run(env *matchEnv) bool {
	env.mustCall("li-t1", MethodLog, c.records[0])
	env.mustCall("li-infra", MethodLog, c.records[1])
	env.mustCall("li-infra", MethodLog, c.records[2])
	env.mustCall("li-t1", MethodLog, c.records[3])
	return hasEvent(env.mustCall("analyser", MethodVerdict, c.verdict), EventMatched)
}

// BenchmarkLogMatchExchange runs whole exchanges through the contract: five
// Execute calls, each ending in a pass of the checks over what state holds of
// the request so far. ns/op and allocs/op are per exchange.
func BenchmarkLogMatchExchange(b *testing.B) {
	env := newMatchEnv(b, defaultCfg())
	env.anchorPolicy("v1")
	calls := make([]exchangeCalls, b.N)
	for i := range calls {
		calls[i] = benchExchange(fmt.Sprintf("req-bench-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range calls {
		if !calls[i].run(env) {
			b.Fatal("exchange did not match")
		}
	}
}

// TestLogMatchExchangeAllocBudget keeps JSON off the stored state. Each of an
// exchange's five calls re-runs the checks over what state holds of the
// request: fourteen record reads and one verdict read in all. While state held
// the JSON records those reads were fifteen json.Unmarshal, payload included,
// and the exchange cost 558 allocations (90 KB, 860 us); as slice reads it
// costs 394 (31 KB, 145 us), nearly all of them the five argument decodes and
// re-encodes. The budget is today's count plus the room the race detector
// takes (437 under -race), far below the old one: parsing stored state again,
// for even half of the reads, exceeds it.
func TestLogMatchExchangeAllocBudget(t *testing.T) {
	const runs, exchangeAllocBudget = 50, 460
	env := newMatchEnv(t, defaultCfg())
	env.anchorPolicy("v1")
	calls := make([]exchangeCalls, runs+1) // AllocsPerRun warms up with one extra call
	for i := range calls {
		calls[i] = benchExchange(fmt.Sprintf("req-budget-%d", i))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if !calls[next].run(env) {
			t.Error("exchange did not match")
		}
		next++
	})
	t.Logf("%.0f allocs per exchange", allocs)
	if allocs > exchangeAllocBudget {
		t.Errorf("one exchange allocates %.0f, budget %d", allocs, exchangeAllocBudget)
	}
}
