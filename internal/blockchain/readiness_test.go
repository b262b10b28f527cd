package blockchain

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"drams/internal/netsim"
	"drams/internal/obs"
)

// TestReadinessTransitionOnRejoin pins the health/readiness lifecycle of a
// rejoining member: once it has probed a peer's head it knows how far
// behind it is and /readyz answers 503 while the batched catch-up is
// outstanding; within one sync round of completion it answers 200.
func TestReadinessTransitionOnRejoin(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 5})
	defer net.Close()
	peers := []string{"src", "joiner"}
	src, err := NewNode(NodeConfig{Name: "src", Chain: testChainConfig(t, alice), Network: net, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Stop()
	parent := src.chain.Genesis()
	const length = 20
	for i := 1; i <= length; i++ {
		tx, err := NewTransaction(alice, uint64(i), putCall(fmt.Sprintf("k%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		b := mineChild(t, src.chain, parent, tx)
		if err := src.chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		parent = b.Hash()
	}

	joiner, err := NewNode(NodeConfig{Name: "joiner", Chain: testChainConfig(t, alice), Network: net,
		Peers: peers, SyncBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()

	const lag = 2
	health := obs.NewHealth()
	health.AddReady("chain", func() error {
		if joiner.CaughtUp(lag) {
			return nil
		}
		return fmt.Errorf("syncing: height %d trails best seen %d", joiner.chain.Height(), joiner.BestSeenHeight())
	})
	srv := httptest.NewServer(obs.Handler(obs.NewGatherer(nil), health))
	defer srv.Close()
	readyz := func() (int, string) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}

	// Before any peer contact the node has no evidence it is behind:
	// readiness is vacuously true (a lone bootstrap member must serve).
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("pre-contact /readyz = %d, want 200", code)
	}

	// Probing the peer's head reveals the gap: not ready while behind.
	hi, err := joiner.fetchHead("src")
	if err != nil {
		t.Fatal(err)
	}
	if hi.Height != length {
		t.Fatalf("probed head %d, want %d", hi.Height, length)
	}
	if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "syncing") {
		t.Fatalf("mid-catch-up /readyz = %d %q, want 503 syncing", code, body)
	}

	// One batched sync round brings the chain level with the peer; the
	// very next readiness probe flips to 200.
	if err := joiner.SyncFrom("src"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := readyz()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-sync /readyz stuck at %d %q", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if joiner.chain.Height() != length {
		t.Fatalf("joiner height %d after sync, want %d", joiner.chain.Height(), length)
	}
}
