package attack

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"drams"
	"drams/internal/blockchain"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/federation"
)

// memberClasses are the catalogue IDs of the member-level attack classes:
// a Byzantine member acting on gossip, mining or its mempool, rather than a
// tamper at one PEP/PDP seam.
var memberClasses = []string{"withholding", "equivocation", "censorship", "ordering", "suppression"}

// TestChaosCatalogueShape pins the member-level rows of the catalogue: one
// scenario per attack class, each fully specified, and no other row that
// is not a §I tamper attack.
func TestChaosCatalogueShape(t *testing.T) {
	want := map[string]bool{}
	for _, id := range memberClasses {
		want[id] = true
	}
	seen := map[string]bool{}
	for _, sc := range Catalogue() {
		if strings.HasPrefix(sc.ID, "A") {
			continue
		}
		if !want[sc.ID] {
			t.Fatalf("unknown class %q", sc.ID)
		}
		if seen[sc.ID] {
			t.Fatalf("duplicate class %q", sc.ID)
		}
		seen[sc.ID] = true
		if sc.Name == "" || sc.Description == "" || len(sc.Expected) == 0 || sc.Run == nil {
			t.Fatalf("class %q underspecified", sc.ID)
		}
	}
	if len(seen) != len(memberClasses) {
		t.Fatalf("catalogue has %d member-level classes, want %d", len(seen), len(memberClasses))
	}
}

// TestChaosCampaignDetectionMatrix is the member-level half of experiment
// V7: every attack class must be in the campaign run, detected on every
// trial, with zero false positives, under the pinned seed. It reads the
// campaign run TestCatalogueDetectionMatrix reads.
func TestChaosCampaignDetectionMatrix(t *testing.T) {
	rep := catalogueResults(t)
	byID := map[string]Result{}
	for _, r := range rep.Results {
		byID[r.ID] = r
	}
	for _, id := range memberClasses {
		r, ok := byID[id]
		if !ok {
			t.Errorf("%s: not in the campaign run", id)
			continue
		}
		if r.Err != "" {
			t.Errorf("%s: injection failed: %s", id, r.Err)
			continue
		}
		if r.Detected != r.Trials {
			t.Errorf("%s: detected %d/%d trials", id, r.Detected, r.Trials)
		}
		if r.FalsePositives != 0 {
			t.Errorf("%s: %d false positives among %v", id, r.FalsePositives, r.Alerts)
		}
	}
}

// TestDeploymentEquivocationConvergence drives a full chain-level
// equivocation against a live federation: a Byzantine member double-mines
// sibling blocks for disjoint peer subsets, one carrying a record that
// conflicts with the victim's already-matched request. The federation must
// both detect (AlertEquivocation, exactly once per victim request) and
// converge — the fork heals under cumulative-work fork choice.
func TestDeploymentEquivocationConvergence(t *testing.T) {
	const seed = 11
	dep, err := drams.Open(ChaosPolicy(),
		drams.WithTopology(federation.SimpleTopology("equiv", 3)),
		drams.WithDifficulty(6),
		drams.WithTimeoutBlocks(8),
		drams.WithEmptyBlockInterval(200*time.Millisecond),
		drams.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	client, err := dep.Client("tenant-2")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Clean exchange first: the honest records for the victim's request
	// are on-chain and matched, so the forged record is unambiguously the
	// conflicting second write.
	req := ChaosRequest(dep)
	if _, err := client.Decide(ctx, req); err != nil {
		t.Fatal(err)
	}
	if err := dep.WaitForMatched(ctx, req.ID); err != nil {
		t.Fatal(err)
	}

	view := dep.InfraNode().Chain()
	li := crypto.NewIdentityFromSeed("li@tenant-3", federation.IdentitySeed(seed, "li@tenant-3"))
	forged, err := ForgeConflictingRecord(view, li, "tenant-2", req.ID)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2, err := DoubleMine(ctx, view, "node@cloud-3", []blockchain.Transaction{forged}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := dep.Transport.Register("adversary@equiv")
	if err != nil {
		t.Fatal(err)
	}
	// Split-brain delivery: the monitor's side sees the sibling with the
	// forged record, the Byzantine member's side sees the empty sibling.
	DeliverBlock(ep, b1, "node@cloud-1", "node@cloud-2")
	DeliverBlock(ep, b2, "node@cloud-3")
	DeliverTx(ep, forged, "node@cloud-1", "node@cloud-2", "node@cloud-3")

	if _, err := dep.WaitForAlert(ctx, req.ID, core.AlertEquivocation); err != nil {
		t.Fatalf("equivocation not detected: %v (alerts: %v)", err, dep.Monitor.AlertsFor(req.ID))
	}

	// Exactly once per victim request, even while the fork resolves.
	time.Sleep(500 * time.Millisecond)
	n := 0
	for _, a := range dep.Monitor.AlertsFor(req.ID) {
		if a.Type == core.AlertEquivocation {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("AlertEquivocation raised %d times, want exactly 1", n)
	}

	// Both forks' followers converge onto one chain.
	var chains [3]*blockchain.Chain
	for i := range chains {
		node, err := dep.Node(fmt.Sprintf("cloud-%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		chains[i] = node.Chain()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		d1, d2, d3 := chains[0].StateDigest(), chains[1].StateDigest(), chains[2].StateDigest()
		if d1 == d2 && d2 == d3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("forks did not converge: %s %s %s", d1.Short(), d2.Short(), d3.Short())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPartitionHealSoak runs the partition/heal chaos drill: the victim's
// whole member (chain node + PEP) is cut off mid-attack. While partitioned,
// the honest side must stay silent — no record anchored, so no M-alert may
// fire. After the heal, the trapped probe log rebroadcasts, arms the M3
// deadline and true detection lands within the bound.
func TestPartitionHealSoak(t *testing.T) {
	const timeoutBlocks = 8
	dep, err := drams.Open(ChaosPolicy(),
		drams.WithTopology(federation.SimpleTopology("soak", 3)),
		drams.WithDifficulty(6),
		drams.WithTimeoutBlocks(timeoutBlocks),
		drams.WithEmptyBlockInterval(15*time.Millisecond),
		drams.WithSeed(13),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if dep.Net == nil {
		t.Fatal("deployment has no netsim network")
	}
	honest, err := dep.Client("tenant-2")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := dep.Client("tenant-3")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Baseline: a clean exchange matches without alerts.
	clean := ChaosRequest(dep)
	if _, err := honest.Decide(ctx, clean); err != nil {
		t.Fatal(err)
	}
	if err := dep.WaitForMatched(ctx, clean.ID); err != nil {
		t.Fatal(err)
	}

	// Cut the victim member off: its chain node and its tenant's PEP land
	// in one island, the rest of the federation in the other.
	dep.Net.Partition([]string{"node@cloud-3", "pep@tenant-3"})

	req := ChaosRequest(dep)
	reqCtx, reqCancel := context.WithTimeout(ctx, 3*time.Second)
	if _, err := victim.Decide(reqCtx, req); err == nil {
		reqCancel()
		t.Fatal("partitioned PEP unexpectedly reached the PDP")
	}
	reqCancel()

	// Soak well past the Δ window: the probe's pep.request is trapped on
	// the partitioned node, so the honest side must not raise anything.
	_, h0 := dep.InfraNode().Chain().Head()
	for {
		if _, h := dep.InfraNode().Chain().Head(); h >= h0+timeoutBlocks+4 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("chain stalled during partition soak")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, a := range dep.Monitor.Alerts() {
		t.Fatalf("false alert during partition: %+v", a)
	}

	// Heal: the trapped record rebroadcasts, anchors, arms the deadline —
	// and the half-complete exchange is flagged within the bound.
	dep.Net.Heal()
	_, healHeight := dep.InfraNode().Chain().Head()
	alert, err := dep.WaitForAlert(ctx, req.ID, core.AlertMessageSuppressed)
	if err != nil {
		t.Fatalf("no detection after heal: %v (alerts: %v)", err, dep.Monitor.Alerts())
	}
	if bound := healHeight + timeoutBlocks + 16; alert.Height > bound {
		t.Fatalf("post-heal detection too slow: alert at height %d, healed at %d, bound %d",
			alert.Height, healHeight, bound)
	}
}

// TestDelayedAnchorBeyondM6Grace delays a pdp.response record past a policy
// rollout's grace window: the record was honest when produced (under v1),
// but the producer holds it until v1 has been superseded for more than Δ
// blocks. Anchoring it late must trip M6's version check.
func TestDelayedAnchorBeyondM6Grace(t *testing.T) {
	const timeoutBlocks = 8
	dep, err := drams.Open(ChaosPolicy(),
		drams.WithDifficulty(6),
		drams.WithTimeoutBlocks(timeoutBlocks),
		drams.WithEmptyBlockInterval(15*time.Millisecond),
		drams.WithSeed(17),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	infra, err := dep.Topology().InfrastructureTenant()
	if err != nil {
		t.Fatal(err)
	}
	infraNode, err := dep.Node(infra.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	byz := Byzantine(infraNode)
	client, err := dep.Client("tenant-2")
	if err != nil {
		t.Fatal(err)
	}

	req := ChaosRequest(dep)
	byz.DelayRecords(HoldRecords(core.KindPDPResponse, req.ID))
	if _, err := client.Decide(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Supersede v1 and let the grace window lapse.
	v2 := ChaosPolicy()
	v2.Version = "v2"
	if err := dep.PublishPolicy(v2); err != nil {
		t.Fatal(err)
	}
	_, actHeight := dep.InfraNode().Chain().Head()
	for {
		if _, h := dep.InfraNode().Chain().Head(); h > actHeight+timeoutBlocks+2 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("chain stalled while waiting out the grace window")
		}
		time.Sleep(20 * time.Millisecond)
	}

	byz.LiftCensorship()
	if _, err := dep.WaitForAlert(ctx, req.ID, core.AlertPolicyTampered); err != nil {
		t.Fatalf("stale anchor not flagged: %v (alerts: %v)", err, dep.Monitor.AlertsFor(req.ID))
	}
}
