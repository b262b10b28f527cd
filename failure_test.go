package drams_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"drams"
	"drams/internal/core"
)

// TestPartitionedCloudLogsRaiseM3 injects an infrastructure failure rather
// than a malicious component: tenant-2's cloud node is partitioned from the
// rest of the federation, so its LI's log transactions never reach the
// block producer. The M3 timeout check must surface the missing edge-side
// records — the paper's resilience claim covers failures of the monitoring
// pipeline itself.
func TestPartitionedCloudLogsRaiseM3(t *testing.T) {
	dep := testDeployment(t)

	// Isolate only the chain node of cloud-2. The access-control path
	// (PEP ↔ PDP) and all other components stay connected, so the
	// exchange itself succeeds — but tenant-2's observations are trapped
	// in the partitioned node's mempool.
	var rest []string
	for _, addr := range dep.Net.Addresses() {
		if addr != "node@cloud-2" {
			rest = append(rest, addr)
		}
	}
	dep.Net.Partition([]string{"node@cloud-2"}, rest)

	client := tenantClient(t, dep, "tenant-2")
	req := doctorRequest(dep)
	enf, err := client.Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatalf("decision = %s", enf.Decision)
	}

	alert, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertMessageSuppressed)
	if err != nil {
		t.Fatal(err)
	}
	// The missing legs are exactly the tenant-2 (PEP-side) records.
	for _, want := range []string{string(core.KindPEPRequest), string(core.KindPEPResponse)} {
		if !strings.Contains(alert.Detail, want) {
			t.Fatalf("detail %q should list %s", alert.Detail, want)
		}
	}
	if strings.Contains(alert.Detail, string(core.KindPDPRequest)) {
		t.Fatalf("detail %q lists a record that did arrive", alert.Detail)
	}

	// After healing, new traffic flows and matches cleanly again.
	dep.Net.Heal()
	req2 := doctorRequest(dep)
	if _, err := client.Decide(ctx20(t), req2); err != nil {
		t.Fatal(err)
	}
	if err := dep.WaitForMatched(ctx20(t), req2.ID); err != nil {
		t.Fatal(err)
	}
}

// TestWithheldEdgeRecordsNameTheOriginTenant: when a tenant's PEP-side
// records never reach the chain, the M3 alert still names that tenant. The
// PDP-side records carry the calling PEP's tenant as their origin (the PDP
// reads it off the pep@<tenant> address of the call), and M3 names the
// origin of the records that did arrive, not the infrastructure tenant that
// logged them.
func TestWithheldEdgeRecordsNameTheOriginTenant(t *testing.T) {
	dep := testDeployment(t)
	dep.Agents["tenant-2"].Mute(core.KindPEPRequest)
	dep.Agents["tenant-2"].Mute(core.KindPEPResponse)
	req := doctorRequest(dep)
	if _, err := tenantClient(t, dep, "tenant-2").Decide(ctx20(t), req); err != nil {
		t.Fatal(err)
	}
	alert, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertMessageSuppressed)
	if err != nil {
		t.Fatal(err)
	}
	if alert.Tenant != "tenant-2" {
		t.Fatalf("alert names tenant %q, want the origin tenant-2: %s", alert.Tenant, alert)
	}
}

// TestAnalyserOutageRaisesVerdictMissing severs the analyser's chain node
// mid-operation: decisions keep flowing but no verdicts can be produced, so
// the liveness half of M5 must fire.
func TestAnalyserOutageRaisesVerdictMissing(t *testing.T) {
	dep := testDeployment(t)

	// Warm-up: one clean matched exchange proves the analyser works.
	client := tenantClient(t, dep, "tenant-1")
	warm := doctorRequest(dep)
	if _, err := client.Decide(ctx20(t), warm); err != nil {
		t.Fatal(err)
	}
	if err := dep.WaitForMatched(ctx20(t), warm.ID); err != nil {
		t.Fatal(err)
	}

	// The analyser runs against cloud-2's node (a different cloud section
	// than the access-control components, per Figure 1). Cut it off.
	var rest []string
	for _, addr := range dep.Net.Addresses() {
		if addr != "node@cloud-2" {
			rest = append(rest, addr)
		}
	}
	dep.Net.Partition([]string{"node@cloud-2"}, rest)

	req := doctorRequest(dep)
	if _, err := client.Decide(ctx20(t), req); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertVerdictMissing); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedLIDetectedByTimeout crashes tenant-1's LI endpoint... the LI
// talks to its node in-process, so instead we model an LI process crash by
// stopping it: its agents' observations fail and M3 fires.
func TestCrashedLIDetectedByTimeout(t *testing.T) {
	dep := testDeployment(t)
	dep.LIs["tenant-1"].Stop()

	req := doctorRequest(dep)
	enf, err := tenantClient(t, dep, "tenant-1").Decide(ctx20(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !enf.Permitted() {
		t.Fatalf("decision = %s (access control must keep working without its logger)", enf.Decision)
	}
	alert, err := dep.WaitForAlert(ctx20(t), req.ID, core.AlertMessageSuppressed)
	if err != nil {
		t.Fatal(err)
	}
	if alert.ReqID != req.ID {
		t.Fatalf("alert = %+v", alert)
	}
}

// TestLossyNetworkStillMatches runs clean traffic over a network that
// delays every message; the pipeline must still converge (blockchain gossip
// and the M3 window absorb the jitter).
func TestLossyNetworkStillMatches(t *testing.T) {
	dep := testDeployment(t,
		drams.WithNetwork(2*time.Millisecond, 3*time.Millisecond),
		drams.WithTimeoutBlocks(40))
	client := tenantClient(t, dep, "tenant-1")
	for i := 0; i < 5; i++ {
		req := doctorRequest(dep)
		if _, err := client.Decide(ctx20(t), req); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err := dep.WaitForMatched(ctx, req.ID)
		cancel()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if n := dep.Monitor.Stats().AlertsSeen; n != 0 {
		t.Fatalf("alerts on clean jittery traffic: %d", n)
	}
}
