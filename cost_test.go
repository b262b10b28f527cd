package drams_test

import (
	"runtime"
	"testing"
	"time"

	"drams/internal/blockchain"
)

// What an exchange costs, as counts. N exchanges are driven one after
// another on the default two-cloud deployment, each matched before the next
// starts, so no batching blurs the per-exchange figures. Counts depend on
// the code, not on the host, so they are pinned here, where every change
// runs them. Each row is an equality or a ceiling at the measured value:
//
//   - chain transactions: 181 for 60 exchanges (3.02 per exchange), three
//     per exchange plus the genesis policy publish;
//   - blocks: 128–130 for 60 exchanges (2.13–2.17 per exchange). Stated,
//     not pinned: the producer also mines empty blocks on a timer;
//   - ed25519 verifications per member: exactly the chain transactions the
//     member did not sign, since a member's Senders vouch for their own.
//     That is 60 on cloud-1 and 121 on cloud-2;
//   - bytes allocated per exchange, by the whole in-process fleet while the
//     exchanges run: 43.1–43.6 KiB measured (44.4 under the race
//     detector), 64.9–65.1 KiB before the evidence path allocated only what
//     the chain keeps. A ceiling, with room for the empty blocks and
//     rebroadcasts a slower host interleaves.
func TestCostPerExchange(t *testing.T) {
	const (
		n = 60
		// maxTxsPerExchange is the ceiling on chain transactions per
		// exchange, the genesis publish included (181/60 measured).
		maxTxsPerExchange = 3.02
		// maxKiBPerExchange is the ceiling on bytes allocated per exchange.
		maxKiBPerExchange = 48
	)
	dep := testDeployment(t)
	client := tenantClient(t, dep, "tenant-1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		req := doctorRequest(dep)
		if _, err := client.Decide(ctx20(t), req); err != nil {
			t.Fatal(err)
		}
		if err := dep.WaitForMatched(ctx20(t), req.ID); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	t.Logf("%.1f KiB allocated per exchange", kib)
	if kib > maxKiBPerExchange {
		t.Errorf("%.1f KiB allocated per exchange, ceiling %.0f", kib, float64(maxKiBPerExchange))
	}

	clouds := dep.Topology().Clouds
	nodes := make([]*blockchain.Node, len(clouds))
	for i, c := range clouds {
		node, err := dep.Node(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	// Every member holds the producer's head and nothing is pending, so
	// every transaction it will verify is on its chain.
	settled := func() bool {
		head, _ := nodes[0].Chain().Head()
		for _, node := range nodes {
			if h, _ := node.Chain().Head(); h != head || node.Stats().MempoolLen != 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			t.Fatal("members never settled on one head with empty pools")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for i, node := range nodes {
		chain := node.Chain()
		txs, blocks := 0, chain.Height()
		for h := uint64(1); h <= blocks; h++ {
			b, ok := chain.BlockByHeight(h)
			if !ok {
				t.Fatalf("%s: no block at height %d", clouds[i].Name, h)
			}
			txs += len(b.Txs)
		}
		st := node.Stats()
		t.Logf("%s: %d chain transactions (%.2f per exchange) in %d blocks (%.2f per exchange); signed %d, verified %d",
			clouds[i].Name, txs, float64(txs)/n, blocks, float64(blocks)/n, st.TxsSubmitted, st.Verifier.Verified)
		if float64(txs) > maxTxsPerExchange*n {
			t.Errorf("%s: %d chain transactions for %d exchanges, ceiling %.2f per exchange", clouds[i].Name, txs, n, maxTxsPerExchange)
		}
		if want := int64(txs) - st.TxsSubmitted; st.Verifier.Verified != want {
			t.Errorf("%s: %d ed25519 verifications, want %d: the %d chain transactions less the %d it signed",
				clouds[i].Name, st.Verifier.Verified, want, txs, st.TxsSubmitted)
		}
		if st.Verifier.Failures != 0 {
			t.Errorf("%s: %d verification failures on an honest fleet", clouds[i].Name, st.Verifier.Failures)
		}
	}
}
