package drams_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"drams"
	"drams/internal/core"
	"drams/internal/xacml"
)

func TestOpenOptionsAndAccessors(t *testing.T) {
	dep := testDeployment(t)

	if _, err := dep.Client("tenant-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Client("ghost"); err == nil {
		t.Fatal("Client for unknown tenant succeeded")
	}
	if _, err := dep.PEP("tenant-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.PEP("ghost"); err == nil {
		t.Fatal("PEP for unknown tenant succeeded")
	}
	if _, err := dep.Node("cloud-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Node("ghost"); err == nil {
		t.Fatal("Node for unknown cloud succeeded")
	}

	// The monitoring toggle flows through the option.
	off, err := drams.Open(testPolicy("v1"),
		drams.WithDifficulty(6),
		drams.WithMonitoring(false),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(off.Close)
	if off.Monitor != nil {
		t.Fatal("WithMonitoring(false) left the monitor running")
	}
	if _, _, err := off.Alerts(context.Background(), drams.AlertFilter{}); !errors.Is(err, drams.ErrMonitoringDisabled) {
		t.Fatalf("Alerts with monitoring off = %v", err)
	}
}

func TestClientDecideMatchesOnChain(t *testing.T) {
	dep := testDeployment(t)
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	req := client.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	enf, err := client.Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatalf("doctor read = %s", enf.Decision)
	}
	if err := dep.WaitForMatched(ctx20(t), req.ID); err != nil {
		t.Fatal(err)
	}
}

func TestClientDecideHonorsCancellation(t *testing.T) {
	dep := testDeployment(t)
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Decide(ctx, doctorRequest(dep)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Decide with cancelled ctx = %v", err)
	}
}

// TestDecideBatchEquivalence checks the satellite guarantee: a pipelined
// batch produces the same decisions and the same on-chain evidence (4 log
// records per exchange, all matched, zero alerts) as sequential Decide.
func TestDecideBatchEquivalence(t *testing.T) {
	dep := testDeployment(t, drams.WithTimeoutBlocks(80))
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	roles := []string{"doctor", "intern", "nurse"}
	build := func() []*xacml.Request {
		reqs := make([]*xacml.Request, n)
		for i := range reqs {
			reqs[i] = client.NewRequest().
				Add(xacml.CatSubject, "role", xacml.String(roles[i%len(roles)])).
				Add(xacml.CatAction, "op", xacml.String("read"))
		}
		return reqs
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancelCtx()

	waitAll := func(reqs []*xacml.Request) {
		t.Helper()
		for _, req := range reqs {
			if err := dep.WaitForMatched(ctx, req.ID); err != nil {
				t.Fatal(err)
			}
		}
	}

	seqReqs := build()
	seqDecisions := make([]xacml.Decision, n)
	logsBefore := dep.Monitor.Stats().LogsSeen
	for i, req := range seqReqs {
		enf, err := client.Decide(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		seqDecisions[i] = enf.Decision
	}
	waitAll(seqReqs)
	seqLogs := dep.Monitor.Stats().LogsSeen - logsBefore

	batchReqs := build()
	logsBefore = dep.Monitor.Stats().LogsSeen
	enfs, err := client.DecideBatch(ctx, batchReqs)
	if err != nil {
		t.Fatal(err)
	}
	waitAll(batchReqs)
	batchLogs := dep.Monitor.Stats().LogsSeen - logsBefore

	if len(enfs) != n {
		t.Fatalf("batch returned %d enforcements", len(enfs))
	}
	for i, enf := range enfs {
		if enf.Decision != seqDecisions[i] {
			t.Fatalf("request %d: batch %s != sequential %s", i, enf.Decision, seqDecisions[i])
		}
	}
	if seqLogs != 4*n || batchLogs != 4*n {
		t.Fatalf("on-chain logs: sequential %d, batch %d, want %d each", seqLogs, batchLogs, 4*n)
	}
	if got := dep.Monitor.Stats().AlertsSeen; got != 0 {
		t.Fatalf("clean traffic raised %d alerts: %v", got, dep.Monitor.Alerts())
	}
}

func TestDecideBatchUnderTamperAlertsPerRequest(t *testing.T) {
	dep := testDeployment(t, drams.WithTimeoutBlocks(80))
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.TamperPEP("tenant-1", &drams.Tamper{
		Enforce: func(xacml.Decision) xacml.Decision { return xacml.Permit },
	}); err != nil {
		t.Fatal(err)
	}
	const n = 3
	reqs := make([]*xacml.Request, n)
	for i := range reqs {
		reqs[i] = client.NewRequest().
			Add(xacml.CatSubject, "role", xacml.String("intern")).
			Add(xacml.CatAction, "op", xacml.String("read"))
	}
	enfs, err := client.DecideBatch(ctx20(t), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, enf := range enfs {
		if !enf.Permitted() {
			t.Fatalf("request %d: attack precondition failed (%s)", i, enf.Decision)
		}
	}
	// Every request in the batch is individually detected.
	for _, req := range reqs {
		if _, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertEnforcementMismatch); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAlertsStreamDeliversTenantAlerts(t *testing.T) {
	dep := testDeployment(t)
	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	alerts, stop, err := dep.Alerts(ctx20(t), drams.AlertFilter{Tenant: "tenant-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if err := dep.TamperPEP("tenant-1", &drams.Tamper{
		Enforce: func(xacml.Decision) xacml.Decision { return xacml.Permit },
	}); err != nil {
		t.Fatal(err)
	}
	const n = 3
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		req := client.NewRequest().
			Add(xacml.CatSubject, "role", xacml.String(fmt.Sprintf("intern-%d", i))).
			Add(xacml.CatAction, "op", xacml.String("read"))
		if _, err := client.Decide(ctx20(t), req); err != nil {
			t.Fatal(err)
		}
		want[req.ID] = true
	}
	deadline := time.After(20 * time.Second)
	for len(want) > 0 {
		select {
		case a := <-alerts:
			if a.Tenant != "tenant-1" {
				t.Fatalf("stream leaked alert for %q", a.Tenant)
			}
			if a.Type == core.AlertEnforcementMismatch {
				delete(want, a.ReqID)
			}
		case <-deadline:
			t.Fatalf("missing alerts for %v", want)
		}
	}
}
