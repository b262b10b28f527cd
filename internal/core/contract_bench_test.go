package core

import (
	"fmt"
	"iter"
	"slices"
	"testing"
	"time"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/xacml"
)

// exchangeCalls are the transactions of one clean exchange: the four probe
// records, each with the provenance fields and a sealed payload the size the
// LI produces, then the analyser's verdict. records holds them as four
// one-record logbatch calls; batches as the fleet anchors them, one two-record logbatch per
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
		calls.records[i] = logArgs(recs[i])
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
	env.mustCall("li-t1", MethodLogBatch, c.records[0])
	env.mustCall("li-infra", MethodLogBatch, c.records[1])
	env.mustCall("li-infra", MethodLogBatch, c.records[2])
	env.mustCall("li-t1", MethodLogBatch, c.records[3])
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
// by record in one-record batches: five Execute calls, each ending in a pass of the checks over
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
// of them the argument decodes and re-encodes. With binary records it cost
// 250 record by record and 228 as two batches and a verdict, about half of
// them state plumbing: a key joined to its contract's name on every access,
// copying reads, a per-call overlay that copied each write twice, and key
// lists. With one space per contract, reads that return the stored slice and
// a write journal in place of the overlay it cost 130 and 136; since a
// record travels alone only as a batch of one, record by record cost 158:
// each record also paid for its tree, its proof and the batch decode. With
// the record decoded into one value on the stack after the root check, trees
// and proofs of up to 16 leaves on the stack, rows encoded in the State's
// scratch, presized events, a row's strings aliasing it and a key built once
// per call it cost 77 and 65 (8.1 KB as two batches and a verdict, 12.3 KB
// before). It now costs 73 and 61 (4.5 KB): a LogStored event's payload is
// the record's bytes in the args, where it was a new envelope holding a copy
// of the record and its membership proof. About 36 of the 61 are what state
// and the chain keep: rows and their keys, index nodes and the events. The
// budgets are those counts plus room for the race
// detector and for toolchain drift: a JSON decode of the args, a re-encode
// for the leaf or the row hash, a batch decoded into a slice, or a return of
// the overlay's copies exceeds them.
func TestLogMatchExchangeAllocBudget(t *testing.T) {
	const runs = 50
	for _, v := range []struct {
		name   string
		run    func(exchangeCalls, *matchEnv) bool
		budget float64
	}{
		{"log", exchangeCalls.run, 80},
		{"logbatch", exchangeCalls.runBatched, 68},
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

// keyCounter counts the keys a StateDB's scans yield.
type keyCounter struct {
	contract.StateDB
	read int
}

func (c *keyCounter) Keys(prefix string) iter.Seq[string] {
	return func(yield func(string) bool) {
		for k := range c.StateDB.Keys(prefix) {
			c.read++
			if !yield(k) {
				return
			}
		}
	}
}

// TestDeadlineScanReadsOnlyWhatIsDue: the log-match block hook reads its
// deadline queue up to the first entry that is not yet due. A block in which
// nothing is due reads one key and allocates nothing whether 1 000 or 10 000
// exchanges are pending; listing the queue cost one string per pending
// exchange and a slice that grew with them, and ranging over the key
// iterator a few objects per block.
func TestDeadlineScanReadsOnlyWhatIsDue(t *testing.T) {
	lm := NewLogMatchContract(defaultCfg())
	var allocs []float64
	for _, pending := range []int{1_000, 10_000} {
		st := contract.Namespace(contract.NewState(), ContractName)
		for i := range pending {
			st.Set(deadlineKey(100+uint64(i), fmt.Sprintf("req-%05d", i)), []byte("1"))
		}
		counted := &keyCounter{StateDB: st}
		if evs := lm.OnBlock(99, time.Time{}, counted); len(evs) != 0 || counted.read != 1 {
			t.Fatalf("%d pending: %d events, %d keys read, want 0 and 1", pending, len(evs), counted.read)
		}
		allocs = append(allocs, testing.AllocsPerRun(100, func() { lm.OnBlock(99, time.Time{}, st) }))
		if n := len(slices.Collect(st.Keys("deadline/"))); n != pending {
			t.Fatalf("%d deadlines left of %d", n, pending)
		}
	}
	t.Logf("%v allocs per block", allocs)
	if allocs[0] != 0 || allocs[1] != 0 {
		t.Errorf("a block with nothing due allocates %v at 1 000 and 10 000 pending; want 0", allocs)
	}
}

// TestDecisionTagAllocBudget: a decision tag is an HMAC under a key its
// holder prepared once, over a message built on the stack. It allocates
// nothing (10 allocations and 592 B, 1.6 us, while each tag set up
// crypto/hmac and formatted its message; 0.46 us now).
func TestDecisionTagAllocBudget(t *testing.T) {
	mk := crypto.NewMACKey(testKey)
	if allocs := testing.AllocsPerRun(100, func() { DecisionTag(&mk, "req-budget-1", xacml.Permit) }); allocs != 0 {
		t.Errorf("DecisionTag allocates %.0f, want 0", allocs)
	}
}
