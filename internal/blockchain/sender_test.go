package blockchain

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drams/internal/crypto"
	"drams/internal/netsim"
)

// A Sender vouches for its own transactions on the registry check alone, so
// that check is all that stands between an outsider's Sender and the pool
// (A8): an identity outside the genesis and a registered name with another
// key are both refused, counted as failures, and neither pooled nor
// gossiped. A member's Sender is admitted without an ed25519 check.
func TestSenderVouchKeepsRegistryCheck(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 21})
	defer net.Close()
	watcher, err := net.Register("watcher")
	if err != nil {
		t.Fatal(err)
	}
	var gossiped atomic.Int64
	watcher.OnMessage(WireTx, func(string, []byte) { gossiped.Add(1) })
	// Not started: no rebroadcast loop adds frames, so the count is exact.
	n, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net, Peers: []string{"n", "watcher"}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	refused := []struct {
		id   *crypto.Identity
		want error
	}{
		{testIdentity(t, "mallory", 9), ErrUnknownIdentity},
		{testIdentity(t, "alice", 2), ErrBadSignature}, // alice's name, another key
	}
	for _, c := range refused {
		if _, err := NewSender(n, c.id).Send(putCall("k", "v")); !errors.Is(err, c.want) {
			t.Fatalf("Send as %s (seed 2 = forged key): err %v, want %v", c.id.Name(), err, c.want)
		}
	}
	st := n.Stats()
	if st.MempoolLen != 0 || st.TxsSubmitted != 0 {
		t.Fatalf("refused sends reached the pool: %d pooled, %d submitted", st.MempoolLen, st.TxsSubmitted)
	}
	if st.Verifier.Failures != int64(len(refused)) {
		t.Fatalf("Failures = %d, want %d refusals", st.Verifier.Failures, len(refused))
	}

	id, err := NewSender(n, alice).Send(putCall("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	st = n.Stats()
	if !n.Mempool().Has(id) || st.TxsSubmitted != 1 {
		t.Fatalf("member's send not pooled: has %v, %d submitted", n.Mempool().Has(id), st.TxsSubmitted)
	}
	if st.Verifier.Verified != 0 || !n.chain.Verifier().memo.has(id) {
		t.Fatalf("member's own send: %d verifications, memoised %v; want 0 and true",
			st.Verifier.Verified, n.chain.Verifier().memo.has(id))
	}
	// Close waits for every frame in flight.
	net.Close()
	if got := gossiped.Load(); got != 1 {
		t.Fatalf("watcher received %d transactions, want only the member's one", got)
	}
}

// SubmitTx takes transactions built elsewhere and still verifies them: a
// signature flipped after signing passes the registry check but is refused,
// and its ID is not memoised, so a second submission is verified again.
func TestSubmitTxVerifiesFlippedSignature(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 23})
	defer net.Close()
	n, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	tx, err := NewTransaction(alice, 1, putCall("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	tx.Signature[0] ^= 1
	for i := 1; i <= 2; i++ {
		if err := n.SubmitTx(tx); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("submission %d of a flipped signature: err %v, want ErrBadSignature", i, err)
		}
		if st := n.Stats().Verifier; st.Verified != int64(i) || st.Failures != int64(i) {
			t.Fatalf("after submission %d: %d verified, %d failures", i, st.Verified, st.Failures)
		}
	}
	if n.chain.Verifier().memo.has(tx.ID()) || n.Mempool().Len() != 0 {
		t.Fatal("a refused transaction was memoised or pooled")
	}
}

// Several Senders on one node send at once while an echoing peer relays
// every transaction straight back, so the Senders' admissions race the
// gossip path's on one pool and one verifier memo. The node verifies none
// of its own transactions, pools each once, and a second member verifies
// each once.
func TestConcurrentSendersAdmissionRacesGossipEcho(t *testing.T) {
	const senders, each = 4, 8
	ids := make([]*crypto.Identity, senders)
	for i := range ids {
		ids[i] = testIdentity(t, fmt.Sprintf("sender-%d", i), byte(i))
	}
	net := netsim.New(netsim.Config{Seed: 29})
	defer net.Close()
	peers := []string{"a", "b", "echo"}
	echo, err := net.Register("echo")
	if err != nil {
		t.Fatal(err)
	}
	echo.OnMessage(WireTx, func(_ string, payload []byte) { _ = echo.Send("a", WireTx, payload) })
	// Not started: nothing is mined or rebroadcast, so every transaction
	// stays pooled and the counts are exact.
	a, err := NewNode(NodeConfig{Name: "a", Chain: testChainConfig(t, ids...), Network: net, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	b, err := NewNode(NodeConfig{Name: "b", Chain: testChainConfig(t, ids...), Network: net, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, senders*each)
	for _, id := range ids {
		wg.Add(1)
		go func(s *Sender) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := s.Send(putCall(fmt.Sprintf("k%d", j), "v")); err != nil {
					errs <- err
				}
			}
		}(NewSender(a, id))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	const total = senders * each
	waitFor(t, 10*time.Second, func() bool { return b.Mempool().Len() == total }, "b pools every transaction")
	net.Close()

	sa, sb := a.Stats(), b.Stats()
	if sa.MempoolLen != total || sa.TxsSubmitted != total {
		t.Fatalf("a: %d pooled, %d submitted; want %d", sa.MempoolLen, sa.TxsSubmitted, total)
	}
	if sa.Verifier.Verified != 0 || sa.Verifier.Failures != 0 {
		t.Fatalf("a verified %d of its own transactions (%d failures), want 0", sa.Verifier.Verified, sa.Verifier.Failures)
	}
	if sb.Verifier.Verified != total {
		t.Fatalf("b verified %d signatures for %d foreign transactions", sb.Verifier.Verified, total)
	}
}

// A node relays a transaction before any block it mines can carry it.
// Links deliver in send order, so a peer verifies the transaction at
// admission and its block's check is a memo hit, never a second
// verification racing the first. The gossip filter runs inside the relay;
// there the producer's miner gets ample time to mine, and its chain must
// not carry the transaction yet.
func TestGossipRelayPrecedesProducerBlock(t *testing.T) {
	const n = 4
	alice := testIdentity(t, "alice", 1)
	nodes, _ := testCluster(t, 1, alice)
	producer := nodes[0]
	var mu sync.Mutex
	seen := map[crypto.Digest]bool{}
	var carried atomic.Int64 // first relays whose transaction a block already carried
	producer.SetGossipFilter(func(kind string, payload []byte) bool {
		if kind != kindTx {
			return true
		}
		tx, err := DecodeTx(payload)
		if err != nil {
			t.Error(err)
			return true
		}
		id := tx.ID()
		mu.Lock()
		first := !seen[id]
		seen[id] = true
		mu.Unlock()
		for end := time.Now().Add(50 * time.Millisecond); first && time.Now().Before(end); time.Sleep(time.Millisecond) {
			if _, _, err := producer.Chain().Receipt(id); err == nil {
				carried.Add(1)
				break
			}
		}
		return true
	})

	s := NewSender(producer, alice)
	ids := make([]crypto.Digest, n)
	for i := range ids {
		var err error
		if ids[i], err = s.Send(putCall(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, id := range ids {
			if _, _, err := producer.Chain().Receipt(id); err != nil {
				return false
			}
		}
		return true
	}, "every transaction mined")
	if c := carried.Load(); c != 0 {
		t.Fatalf("%d of %d transactions were in a block before their relay was sent", c, n)
	}
}
