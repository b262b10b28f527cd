package drams_test

import (
	"context"
	"testing"
	"time"

	"drams"
	"drams/internal/core"
	"drams/internal/xacml"
)

// TestDeploymentRestartFromDataDir is the deployment-level durable
// lifecycle: a deployment opened with a DataDir, closed, and reopened with
// the same directory must resume its persisted chains (not a fresh
// genesis), keep the policy version that was active at shutdown — even
// though Open is handed the original v1 policy — serve decisions under it
// immediately, and answer for the outcomes of the exchanges settled before
// the restart.
func TestDeploymentRestartFromDataDir(t *testing.T) {
	dir := t.TempDir()
	open := func() *drams.Deployment {
		dep, err := drams.Open(testPolicy("v1"),
			drams.WithDataDir(dir),
			drams.WithSeed(42),
			drams.WithDifficulty(6),
			drams.WithTimeoutBlocks(20),
			drams.WithEmptyBlockInterval(15*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	dep := open()
	client, err := dep.Client("tenant-1")
	if err != nil {
		dep.Close()
		t.Fatal(err)
	}
	okReq := doctorRequest(dep)
	if _, err := client.Decide(ctx, okReq); err != nil {
		dep.Close()
		t.Fatal(err)
	}
	if err := dep.WaitForMatched(ctx, okReq.ID); err != nil {
		dep.Close()
		t.Fatal(err)
	}
	// One tampered exchange settles to its alert: the PEP enforces the
	// opposite of the decision it received.
	if err := dep.TamperPEP("tenant-1", &drams.Tamper{
		Enforce: func(d xacml.Decision) xacml.Decision {
			if d == xacml.Permit {
				return xacml.Deny
			}
			return xacml.Permit
		},
	}); err != nil {
		dep.Close()
		t.Fatal(err)
	}
	badReq := doctorRequest(dep)
	if _, err := client.Decide(ctx, badReq); err != nil {
		dep.Close()
		t.Fatal(err)
	}
	if _, err := dep.WaitForAlert(ctx, badReq.ID, core.AlertEnforcementMismatch); err != nil {
		dep.Close()
		t.Fatal(err)
	}
	if err := dep.TamperPEP("tenant-1", nil); err != nil {
		dep.Close()
		t.Fatal(err)
	}
	// Flip the fleet to a restricting v2, then shut everything down.
	admin, err := dep.Admin("tenant-1")
	if err != nil {
		dep.Close()
		t.Fatal(err)
	}
	v2 := xacml.RestrictedPolicy("v2")
	if err := admin.UpdatePolicy(ctx, v2, drams.UpdateOptions{}); err != nil {
		dep.Close()
		t.Fatal(err)
	}
	heightAtClose := dep.InfraNode().Chain().Height()
	dep.Close()

	restarted := open()
	defer restarted.Close()
	node := restarted.InfraNode()
	if st := node.Stats(); st.BlocksReloaded == 0 {
		t.Fatal("restarted deployment began from a fresh genesis")
	}
	if h := node.Chain().Height(); h < heightAtClose {
		t.Fatalf("restored height %d < height at close %d", h, heightAtClose)
	}
	// The restored member must land on v2 without re-publishing: Open was
	// given v1 but the chain's active policy wins.
	if st := restarted.PolicyStats(); st.Version != "v2" {
		t.Fatalf("restarted deployment active policy %q, want v2", st.Version)
	}
	// A decision after the reopen mints a fresh ID and settles on its own.
	client2, err := restarted.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	next := doctorRequest(restarted)
	enf, err := client2.Decide(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	if enf.Decision != xacml.Deny || enf.PolicyVersion != "v2" {
		t.Fatalf("decision %v under %s, want Deny under v2", enf.Decision, enf.PolicyVersion)
	}
	if next.ID == okReq.ID || next.ID == badReq.ID {
		t.Fatalf("the reopened deployment re-minted request ID %s", next.ID)
	}
	if err := restarted.WaitForMatched(ctx, next.ID); err != nil {
		t.Fatal(err)
	}
	// Ten more blocks: time for any record anchored under an old ID to
	// reach the contract, which would raise equivocation on it.
	for until := node.Chain().Height() + 10; node.Chain().Height() < until; {
		select {
		case <-ctx.Done():
			t.Fatal(ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}

	// The reopened monitor follows from the restored head, so both outcomes
	// from before the restart come from the log-match contract's rows.
	short, cancelShort := context.WithTimeout(ctx, 2*time.Second)
	defer cancelShort()
	if err := restarted.WaitForMatched(short, okReq.ID); err != nil {
		t.Fatalf("settled exchange after the restart: %v", err)
	}
	if a, err := restarted.WaitForAlert(short, badReq.ID, core.AlertEnforcementMismatch); err != nil || a.ReqID != badReq.ID {
		t.Fatalf("alerted exchange after the restart: %+v, %v", a, err)
	}
	mon := restarted.Monitor
	if !mon.Matched(okReq.ID) || mon.Matched(badReq.ID) {
		t.Fatalf("Matched: settled %v, alerted %v; want true, false", mon.Matched(okReq.ID), mon.Matched(badReq.ID))
	}
	if got := mon.AlertsFor(okReq.ID); len(got) != 0 {
		t.Fatalf("AlertsFor(settled) = %v", got)
	}
	if got := mon.AlertsFor(badReq.ID); len(got) != 1 || got[0].Type != core.AlertEnforcementMismatch {
		t.Fatalf("AlertsFor(alerted) = %v", got)
	}
}
