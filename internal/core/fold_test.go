package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"drams/internal/contract"
	"drams/internal/xacml"
)

// matchAll logs x's four records and its verdict at the current height.
func (e *matchEnv) matchAll(x exchange) {
	e.t.Helper()
	var evs []contract.Event
	for _, rec := range []LogRecord{x.pepRequest(), x.pdpRequest(), x.pdpResponse(), x.pepResponse(x.decision)} {
		evs = append(evs, e.mustCall("li", MethodLogBatch, logArgs(rec))...)
	}
	evs = append(evs, e.mustCall("analyser", MethodVerdict, x.verdict(x.decision).Encode())...)
	if !hasEvent(evs, EventMatched) || len(alertsOf(evs)) != 0 {
		e.t.Fatalf("%s did not match cleanly: %v", x.reqID, alertsOf(evs))
	}
}

// rowsOf lists the log-match rows that name reqID, by key.
func (e *matchEnv) rowsOf(reqID string) map[string][]byte {
	ns := contract.Namespace(e.st, ContractName)
	rows := map[string][]byte{}
	for _, prefix := range []string{"rec/" + reqID + "/", "verdict/" + reqID, "done/" + reqID, "deadline-set/" + reqID, "alerted/" + reqID + "/"} {
		for k := range ns.Keys(prefix) {
			rows[k], _ = ns.Get(k)
		}
	}
	return rows
}

// folded reports whether reqID's rows are exactly its tombstone.
func (e *matchEnv) folded(reqID string) bool {
	rows := e.rowsOf(reqID)
	return len(rows) == 1 && len(rows[doneKey(reqID)]) == tombstoneLen
}

// outcome is what a late transaction's events say, without the heights
// that differ between the two runs: event types and payloads, and alerts
// by type, tenant and wording.
func outcome(evs []contract.Event) string {
	var b bytes.Buffer
	for _, ev := range evs {
		if ev.Type == EventAlert {
			a, _ := DecodeAlert(ev.Payload)
			fmt.Fprintf(&b, "alert %s %s tenant=%q %q\n", a.Type, a.ReqID, a.Tenant, a.Detail)
			continue
		}
		fmt.Fprintf(&b, "%s %x\n", ev.Type, ev.Payload)
	}
	return b.String()
}

// TestFoldLateTransactions: a late transaction against a matched exchange
// has the same outcome before its M3 deadline, against its rows, and after
// it, against its tombstone.
func TestFoldLateTransactions(t *testing.T) {
	x := cleanExchange("req-late")
	conflicting := x.pepRequest()
	conflicting.ReqDigest = cleanExchange("other").reqDig
	late := []struct {
		name, caller, method string
		args                 []byte
		want                 []string // event types
	}{
		{"identical record", "li-t1", MethodLogBatch, logArgs(x.pepRequest()), nil},
		{"conflicting record", "li-t1", MethodLogBatch, logArgs(conflicting), []string{EventAlert}},
		{"identical verdict", "analyser", MethodVerdict, x.verdict(x.decision).Encode(), []string{EventVerdict}},
		{"conflicting verdict", "analyser", MethodVerdict, x.verdict(xacml.Deny).Encode(), []string{EventAlert}},
	}
	for _, tc := range late {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]string
			for i, fold := range []bool{false, true} {
				env := newMatchEnv(t, defaultCfg())
				env.anchorPolicy(x.polVer)
				env.matchAll(x)
				if fold {
					for range defaultCfg().TimeoutBlocks + 1 {
						env.onBlock()
					}
				}
				if env.folded(x.reqID) != fold {
					t.Fatalf("folded = %v, want %v: %v", !fold, fold, env.rowsOf(x.reqID))
				}
				evs := env.mustCall(tc.caller, tc.method, tc.args)
				var types []string
				for _, ev := range evs {
					types = append(types, ev.Type)
				}
				if fmt.Sprint(types) != fmt.Sprint(tc.want) {
					t.Fatalf("fold=%v: events %v, want %v", fold, types, tc.want)
				}
				got[i] = outcome(evs)
			}
			if got[0] != got[1] {
				t.Fatalf("before the fold:\n%s\nafter it:\n%s", got[0], got[1])
			}
		})
	}
}

// TestFoldedExchangeSkipsM6AfterFlip states the one difference the fold
// makes. A duplicate verdict that lands more than Δ after a policy flip
// re-runs every check while the exchange is open, and M6 then calls a
// decision that matched inside the flip's grace window policy-tampered. A
// folded exchange runs no check again: its verdict is re-emitted and
// nothing else.
func TestFoldedExchangeSkipsM6AfterFlip(t *testing.T) {
	x := cleanExchange("req-flip")
	delta := defaultCfg().TimeoutBlocks
	for _, fold := range []bool{false, true} {
		env := newMatchEnv(t, defaultCfg())
		env.anchorPolicy("v1")
		env.anchorPolicy("v2") // v1 deactivated at this height, d
		env.matchAll(x)        // at d+1, inside v1's grace window
		for range delta {      // to d+1+Δ, past the grace window
			env.onBlock()
		}
		if fold {
			env.onBlock() // the deadline, d+1+Δ, folds the exchange
		}
		evs := env.mustCall("analyser", MethodVerdict, x.verdict(x.decision).Encode())
		alerts := alertsOf(evs)
		switch {
		case !hasEvent(evs, EventVerdict):
			t.Errorf("fold=%v: no VerdictStored", fold)
		case !fold && (len(alerts) != 1 || alerts[0].Type != AlertPolicyTampered):
			t.Errorf("open exchange: alerts %v, want one policy-tampered", alerts)
		case fold && len(evs) != 1:
			t.Errorf("folded exchange: events %s", outcome(evs))
		}
	}
}

// TestFoldKeepsOneRowPerExchange pins the count: N matched exchanges past Δ
// leave exactly one done/ row each and none of their rec/, verdict/ or
// deadline-set/ rows.
func TestFoldKeepsOneRowPerExchange(t *testing.T) {
	const n = 20
	env := newMatchEnv(t, defaultCfg())
	env.anchorPolicy("v1")
	for i := range n {
		env.matchAll(cleanExchange(fmt.Sprintf("req-%02d", i)))
		env.onBlock()
	}
	for range defaultCfg().TimeoutBlocks {
		env.onBlock()
	}
	ns := contract.Namespace(env.st, ContractName)
	for prefix, want := range map[string]int{"done/": n, "rec/": 0, "verdict/": 0, "deadline-set/": 0, "deadline/": 0, "alerted/": 0} {
		if got := len(slices.Collect(ns.Keys(prefix))); got != want {
			t.Errorf("%d %s rows, want %d", got, prefix, want)
		}
	}
	for i := range n {
		if reqID := fmt.Sprintf("req-%02d", i); !env.folded(reqID) {
			t.Errorf("%s not folded: %v", reqID, env.rowsOf(reqID))
		}
	}
}

// TestFoldKeepsEvidence: an exchange that raised an alert, or matched
// without a verdict, keeps every row past its deadline.
func TestFoldKeepsEvidence(t *testing.T) {
	noVerdict := defaultCfg()
	noVerdict.RequireVerdict = false
	for _, tc := range []struct {
		name string
		cfg  MatchConfig
		run  func(env *matchEnv, x exchange)
		want int // rows kept
	}{
		{"alerted before matching", defaultCfg(), func(env *matchEnv, x exchange) {
			for _, rec := range []LogRecord{x.pepRequest(), x.pdpRequest(), x.pdpResponse(), x.pepResponse(xacml.Deny)} {
				env.mustCall("li", MethodLogBatch, logArgs(rec))
			}
			env.mustCall("analyser", MethodVerdict, x.verdict(x.decision).Encode())
		}, 4 + 1 + 1 + 1}, // rec ×4, verdict, deadline-set, alerted
		{"alerted after matching", defaultCfg(), func(env *matchEnv, x exchange) {
			env.matchAll(x)
			env.mustCall("analyser", MethodVerdict, x.verdict(xacml.Deny).Encode())
		}, 4 + 1 + 1 + 1 + 1}, // and done
		{"matched without a verdict", noVerdict, func(env *matchEnv, x exchange) {
			for _, rec := range []LogRecord{x.pepRequest(), x.pdpRequest(), x.pdpResponse(), x.pepResponse(x.decision)} {
				env.mustCall("li", MethodLogBatch, logArgs(rec))
			}
		}, 4 + 1 + 1}, // rec ×4, deadline-set, done
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newMatchEnv(t, tc.cfg)
			env.anchorPolicy("v1")
			x := cleanExchange("req-kept")
			tc.run(env, x)
			before := env.rowsOf(x.reqID)
			for range tc.cfg.TimeoutBlocks + 2 {
				env.onBlock()
			}
			after := env.rowsOf(x.reqID)
			if len(after) != tc.want || fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("rows before the deadline %d, after it %d (want %d):\n%v\n%v", len(before), len(after), tc.want, before, after)
			}
		})
	}
}
