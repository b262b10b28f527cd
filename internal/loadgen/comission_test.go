package loadgen

import (
	"context"
	"testing"
	"time"

	"drams/internal/xacml"
)

// stallEvaluator injects a periodic PDP stall: every period, the PDP
// freezes for stall (all evaluations block until the window ends). It is
// the canonical coordinated-omission fixture — a backend that is fast
// almost always and terrible on a schedule.
type stallEvaluator struct {
	inner  xacml.Evaluator
	anchor time.Time
	period time.Duration
	stall  time.Duration
}

func (s *stallEvaluator) Evaluate(r *xacml.Request) (xacml.Result, error) {
	phase := time.Since(s.anchor) % s.period
	if phase < s.stall {
		time.Sleep(s.stall - phase)
	}
	return s.inner.Evaluate(r)
}

// TestCoordinatedOmission pins the defining difference between the two
// executor families. With a PDP that stalls 120ms out of every 500ms:
//
//   - the closed-loop executor's VU is itself blocked during the stall, so
//     it samples each stall at most once per VU — its p90 stays low even
//     though ~24% of wall-clock time is a freeze;
//   - the open-loop executor keeps scheduling arrivals through the stall,
//     so every request that would have arrived during the freeze records
//     its true (queued) latency — its p90 reflects the stall.
//
// If the open-loop scheduler ever regresses into waiting for completions
// (the coordinated-omission bug), its p90 collapses to the closed-loop
// value and this test fails.
//
// The assertions are on p90 so they do not depend on host speed: the closed
// loop takes at most 5 stall-priced samples in 2 s, which cannot reach its
// p90 while it completes more than 50 iterations (40 ms each), whereas p99
// needed more than 500 (4 ms each) and a busy 2-core host missed that.
func TestCoordinatedOmission(t *testing.T) {
	if testing.Short() {
		t.Skip("stall-injection run in -short mode")
	}
	const (
		period  = 500 * time.Millisecond
		stall   = 120 * time.Millisecond
		runtime = 2 * time.Second
	)
	target, err := NewNetsimTarget(NetsimConfig{Clouds: 3, NetLatency: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	dep := target.dep
	if err := dep.CompromisePDP(func(inner xacml.Evaluator) xacml.Evaluator {
		return &stallEvaluator{inner: inner, anchor: time.Now(), period: period, stall: stall}
	}); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.CompromisePDP(nil) }()

	closed := Scenario{
		Name: "co-closed",
		Executor: ExecutorSpec{
			Type: ExecLoopingVU, VUs: 1, Duration: Duration(runtime),
		},
		SampleEvery: Duration(250 * time.Millisecond),
		Seed:        7,
	}
	closedRes, err := Run(context.Background(), closed, target, nil)
	if err != nil {
		t.Fatal(err)
	}

	open := Scenario{
		Name: "co-open",
		Executor: ExecutorSpec{
			Type: ExecConstantArrivalRate, Rate: 250,
			Duration: Duration(runtime), MaxWorkers: 1024,
		},
		SampleEvery: Duration(250 * time.Millisecond),
		Seed:        7,
	}
	openRes, err := Run(context.Background(), open, target, nil)
	if err != nil {
		t.Fatal(err)
	}

	openP90 := openRes.Metrics["p90"]
	closedP90 := closedRes.Metrics["p90"]
	t.Logf("open-loop:   n=%d p50=%.2fms p90=%.2fms max=%.2fms dropped=%d",
		openRes.Requests, openRes.Metrics["p50"], openP90, openRes.Metrics["max"], openRes.Dropped)
	t.Logf("closed-loop: n=%d p50=%.2fms p90=%.2fms max=%.2fms",
		closedRes.Requests, closedRes.Metrics["p50"], closedP90, closedRes.Metrics["max"])

	// The closed loop DID hit the stall (its max proves the backend was
	// slow)...
	if closedRes.Metrics["max"] < 80 {
		t.Fatalf("closed-loop max %.2fms: the stall never fired, fixture broken", closedRes.Metrics["max"])
	}
	// ...but under-reports it: only ~4 of its samples are stall-priced,
	// far below the 10%% needed to move p90.
	if closedP90 > 50 {
		t.Fatalf("closed-loop p90 = %.2fms: expected coordinated omission to hide the stall", closedP90)
	}
	// The open loop prices the stall in: ~24%% of scheduled arrivals land
	// in a freeze window and wait out the remainder, so the slowest tenth
	// of all arrivals waited 70 ms or more.
	if openP90 < 50 {
		t.Fatalf("open-loop p90 = %.2fms: arrival-rate executor failed to surface the stall", openP90)
	}
	if openP90 < 3*closedP90 {
		t.Fatalf("open p90 %.2fms not >> closed p90 %.2fms: executors lost their defining difference",
			openP90, closedP90)
	}
}
