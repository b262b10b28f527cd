package main

import (
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"drams"
	"drams/internal/xacml"
)

func TestPercentileRule(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	// 100 samples: exactly ten lie beyond the 90th, so p90 is supported...
	if v, err := upperPercentile(samples, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	// ...but p99 has one sample beyond it, and 99 samples leave nine
	// beyond p90: both are refused rather than reported from outliers.
	if _, err := upperPercentile(samples, 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 100 samples: err = %v, want refusal", err)
	}
	if _, err := upperPercentile(samples[:99], 0.9); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p90 of 99 samples: err = %v, want refusal", err)
	}
	if _, err := upperPercentile(nil, 0.9); err == nil {
		t.Fatal("p90 of no samples must be refused")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Fatalf("median of one sample = %v, want 7", got)
	}
}

// The spreads the benchmark prints must be the ones the acceptance rule
// computes with Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Fatalf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// An open loop counts latency from the due time. A target that stalls for
// 200 ms delays every request that falls due during the stall, and each of
// them must show its share of it; counting from the send time would show
// the stall once per issuer.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	p := &plan{spec: spec{Name: "fake", OpenLoop: true}}
	for i := 0; i < 40; i++ {
		p.exchanges = append(p.exchanges, &exchange{id: "x", due: time.Duration(i) * 10 * time.Millisecond})
	}
	t0 := time.Now()
	stallFrom, stallTo := t0.Add(50*time.Millisecond), t0.Add(250*time.Millisecond)
	issue(p, t0, nil, nil, func(*exchange) (drams.Enforcement, error) {
		if now := time.Now(); now.After(stallFrom) && now.Before(stallTo) {
			time.Sleep(time.Until(stallTo))
		}
		return drams.Enforcement{}, nil
	})
	for _, ex := range p.exchanges {
		ex.settled = ex.decided
	}
	var m measured
	m.takeSamples(p, t0)

	stalled := 0
	for _, v := range m.decideMs {
		if v > 50 {
			stalled++
		}
	}
	// Requests due between 60 ms and 190 ms waited more than 50 ms for the
	// stall to end: fourteen of them, not two.
	if stalled < 12 {
		t.Fatalf("%d requests show the stall, want every request due during it (≥12): %v", stalled, m.decideMs)
	}
	late := 0
	for _, v := range m.lateMs {
		if v > 50 {
			late++
		}
	}
	if late < 10 {
		t.Fatalf("generator lateness shows %d late sends, want the stalled ones reported (≥10)", late)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root 0..100 with children 10..40 and 30..60 (overlapping: 50 covered)
	// and a grandchild 15..20 under the first child.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "open", Start: 70, End: -1, Parent: 0},
	}
	want := []int64{50, 25, 30, 5, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self time of %s = %d, want %d (all: %v)", spans[i].Name, got[i], want[i], got)
		}
	}
	// A child recorded before its parent (the decide span precedes the root
	// it is attached to afterwards) is covered all the same.
	late := []span{
		{Name: "decide", Start: 5, End: 9, Parent: 1},
		{Name: "exchange", Start: 0, End: 20, Parent: -1},
	}
	if got := selfTimes(late); got[1] != 16 {
		t.Fatalf("self time with a parent recorded after its child = %d, want 16", got[1])
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var rec *recorder
	id := rec.begin("x", -1, "", time.Now())
	rec.end(id, time.Now())
	rec.setParent(id, 0)
	if err := rec.write(t.TempDir(), "w", 1); err != nil {
		t.Fatal(err)
	}
}

// checkerPlan is a one-policy plan with a reference built from it.
func checkerFixture() (reference, func(role, op, tamperOp string, events ...string) *exchange) {
	p := &plan{policy: xacml.StandardPolicy("v1")}
	ref := newReference(p)
	mk := func(role, op, tamperOp string, events ...string) *exchange {
		req := xacml.NewRequest("x1").
			Add(xacml.CatSubject, "role", xacml.String(role)).
			Add(xacml.CatAction, "op", xacml.String(op))
		wire := req
		if tamperOp != "" {
			wire = rewrite(req.Clone(), tamperOp)
		}
		res, err := xacml.NewPDP(p.policy).Evaluate(wire)
		if err != nil {
			panic(err)
		}
		now := time.Now()
		ex := &exchange{id: "x1", req: req, tamperOp: tamperOp, dueAt: now, decided: now,
			enf: drams.Enforcement{Decision: res.Decision, PolicyVersion: "v1"}}
		for _, typ := range events {
			ex.events = append(ex.events, event{typ: typ, at: now.Add(10 * time.Millisecond)})
			ex.settled = now.Add(10 * time.Millisecond)
		}
		return ex
	}
	return ref, mk
}

func TestCheckerAlertIffTampered(t *testing.T) {
	ref, mk := checkerFixture()
	cases := []struct {
		name string
		ex   *exchange
		ok   bool
	}{
		{"honest, matched", mk("doctor", "read", "", evMatched), true},
		{"tampered, alert raised", mk("nurse", "read", "write", evRequestTampered), true},
		{"alert on a request outside the tamper set", mk("doctor", "read", "", evRequestTampered), false},
		{"honest and matched but also alerted", mk("doctor", "read", "", evMatched, "message-suppressed"), false},
		{"tampered, alert missing", mk("nurse", "read", "write"), false},
		{"tampered, matched instead of alerted", mk("nurse", "read", "write", evMatched), false},
		{"tampered, wrong alert type", mk("nurse", "read", "write", "response-tampered"), false},
		{"honest, never matched", mk("doctor", "read", ""), false},
	}
	for _, c := range cases {
		why := checkExchange(c.ex, ref)
		if (why == "") != c.ok {
			t.Errorf("%s: checker said %q, want ok=%v", c.name, why, c.ok)
		}
	}
}

func TestCheckerDecisionAndDeadline(t *testing.T) {
	ref, mk := checkerFixture()

	wrong := mk("nurse", "write", "", evMatched) // reference: Deny
	wrong.enf.Decision = xacml.Permit
	if why := checkExchange(wrong, ref); why == "" {
		t.Error("an enforced Permit where the reference denies must fail")
	}
	// A rewritten request is judged on what the PDP saw: nurse/read
	// rewritten to write is denied, and enforcing that Deny is correct
	// even though the original request would have been permitted.
	rewritten := mk("nurse", "read", "write", evRequestTampered)
	if rewritten.enf.Decision != xacml.Deny {
		t.Fatalf("fixture: rewritten request decided %s, want Deny", rewritten.enf.Decision)
	}
	if why := checkExchange(rewritten, ref); why != "" {
		t.Errorf("rewritten request judged on its wire content must pass: %s", why)
	}

	unknown := mk("doctor", "read", "", evMatched)
	unknown.enf.PolicyVersion = "v9"
	if why := checkExchange(unknown, ref); why == "" {
		t.Error("a decision under a version the run never published must fail")
	}
	failed := mk("doctor", "read", "", evMatched)
	failed.err = errors.New("boom")
	if why := checkExchange(failed, ref); why == "" {
		t.Error("a Decide error must fail")
	}
	slow := mk("doctor", "read", "", evMatched)
	slow.settled = slow.dueAt.Add(settleTimeout + time.Second)
	if why := checkExchange(slow, ref); why == "" {
		t.Error("a match after the settle limit must fail")
	}

	// And a failure must surface as failed_share > 0.
	p := &plan{policy: xacml.StandardPolicy("v1"), exchanges: []*exchange{
		mk("doctor", "read", "", evMatched), mk("doctor", "read", "", evRequestTampered), mk("nurse", "read", "write"),
	}}
	out := &outcome{Attempted: len(p.exchanges)}
	checkRun(p, out)
	if out.Failed != 2 {
		t.Fatalf("failed = %d of %d, want 2", out.Failed, out.Attempted)
	}
}

// The same (workload, seed, seconds) must yield the same request sequence,
// tamper set and flip schedule; another seed must not.
func TestPlanIsDeterministic(t *testing.T) {
	for _, s := range specs {
		a := buildPlan(s, 3, 2, 10).hash()
		b := buildPlan(s, 3, 2, 10).hash()
		c := buildPlan(s, 4, 2, 10).hash()
		if a != b {
			t.Errorf("%s: same seed, different plans: %s vs %s", s.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same plan", s.Name)
		}
	}
	p := buildPlan(specs[0], 1, nominalSeconds, 100)
	if len(p.exchanges) != 600 || len(p.warmup) != 100 {
		t.Fatalf("steady at the nominal length plans %d arrivals and %d warm-ups, want 600 and 100", len(p.exchanges), len(p.warmup))
	}
	tampered := 0
	for _, ex := range p.exchanges {
		if ex.tamperOp != "" {
			tampered++
			if ex.tamperOp == requestOp(ex.req) {
				t.Fatalf("%s: rewritten to the action it already has", ex.id)
			}
		}
	}
	if share := float64(tampered) / 600; math.Abs(share-0.10) > 0.04 {
		t.Fatalf("tamper share %.3f, want about 0.10", share)
	}
	churn := buildPlan(specs[3], 1, 30, 100)
	if len(churn.flips) != 10 || churn.flips[0].at != 1500*time.Millisecond || churn.flips[1].at-churn.flips[0].at != 3*time.Second {
		t.Fatalf("policy-churn at 30 s must flip every 3 s from 1.5 s, got %d flips, first at %s", len(churn.flips), churn.flips[0].at)
	}
	if churn.flips[0].policy.Version != "v2" || churn.flips[9].policy.Version != "v11" {
		t.Fatalf("flip versions %s…%s, want v2…v11", churn.flips[0].policy.Version, churn.flips[9].policy.Version)
	}
}

func setOf(values map[string][]float64, failed int) *resultSet {
	ws := &workloadSet{Runs: 5, Attempted: 1000, Failed: failed, Metrics: map[string]*metricSet{}}
	for _, d := range endToEnd {
		vs, ok := values[d.Name]
		if !ok {
			vs = []float64{10, 10.1, 9.9, 10.05, 9.95}
		}
		ws.Metrics[d.Name] = &metricSet{Unit: d.Unit, Better: d.Better, Values: vs}
	}
	set := &resultSet{Host: thisHost(), Workloads: map[string]*workloadSet{"steady": ws}}
	set.summarise()
	return set
}

// -compare applies each metric's shipped bound in the metric's own
// direction and treats a higher share of failed operations as a regression.
func TestCompareAppliesBounds(t *testing.T) {
	base := setOf(nil, 0)
	if n := compareSets(base, setOf(nil, 0), io.Discard); n != 0 {
		t.Fatalf("identical sets: %d regressions", n)
	}
	// The shipped bounds are 25 %: 40 % worse is a regression, 20 % is not.
	slower := setOf(map[string][]float64{"decide_p50_ms": {14, 14.1, 13.9, 14, 14}}, 0)
	if n := compareSets(base, slower, io.Discard); n != 1 {
		t.Fatalf("decide_p50_ms 40%% worse: %d regressions, want 1", n)
	}
	if n := compareSets(base, setOf(map[string][]float64{"decide_p50_ms": {12, 12.1, 11.9, 12, 12}}, 0), io.Discard); n != 0 {
		t.Fatalf("decide_p50_ms 20%% worse is inside the bound: %d regressions, want 0", n)
	}
	// Lower throughput is worse, higher is not.
	if n := compareSets(base, setOf(map[string][]float64{"exchanges_per_s": {6, 6, 6, 6, 6}}, 0), io.Discard); n != 1 {
		t.Fatalf("throughput down 40%%: %d regressions, want 1", n)
	}
	if n := compareSets(base, setOf(map[string][]float64{"exchanges_per_s": {14, 14, 14, 14, 14}}, 0), io.Discard); n != 0 {
		t.Fatalf("throughput up 40%%: %d regressions, want 0", n)
	}
	if n := compareSets(base, setOf(nil, 1), io.Discard); n != 1 {
		t.Fatalf("one more failed operation: %d regressions, want 1", n)
	}
}
