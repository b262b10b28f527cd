package hybrid

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/merkle"
	"drams/internal/netsim"
)

// hybridEnv is a single-node chain plus a hybrid store.
type hybridEnv struct {
	node  *blockchain.Node
	store *Store
}

func newHybridEnv(t *testing.T, batchSize int, confirm uint64) *hybridEnv {
	t.Helper()
	var seed [32]byte
	seed[0] = 5
	id := crypto.NewIdentityFromSeed("hybrid-writer", seed)
	reg := contract.NewRegistry()
	reg.MustRegister(&contract.AnchorContract{ContractName: "anchor"})
	net := netsim.New(netsim.Config{Seed: 3})
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "node-0",
		Chain: blockchain.Config{
			Difficulty: 4,
			Identities: []crypto.PublicIdentity{id.Public()},
			Registry:   reg,
		},
		Network:            net,
		Mine:               true,
		EmptyBlockInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	t.Cleanup(func() {
		node.Stop()
		net.Close()
	})
	st, err := Open(Config{
		Stream:            "logs",
		BatchSize:         batchSize,
		Sender:            blockchain.NewSender(node, id),
		Node:              node,
		WaitConfirmations: confirm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &hybridEnv{node: node, store: st}
}

func (e *hybridEnv) putN(t *testing.T, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := e.store.Put(ctx, fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

func (e *hybridEnv) waitAnchors(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var got int
		e.node.Chain().ReadState("anchor", func(st contract.StateDB) {
			got = len(contract.ListAnchors(st, "logs"))
		})
		if got >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("anchors did not reach %d", want)
}

// TamperCurrentValue corrupts a key's current value in place.
func (s *Store) TamperCurrentValue(key string, newValue []byte) bool {
	return s.db.tamper(dataKey(key), newValue)
}

func TestPutGetRoundTrip(t *testing.T) {
	env := newHybridEnv(t, 4, 0)
	env.putN(t, 3)
	v, err := env.store.Get("key-1")
	if err != nil || string(v) != "value-1" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if _, err := env.store.Get("missing"); err == nil {
		t.Fatal("phantom key")
	}
}

func TestBatchAnchoredAtSize(t *testing.T) {
	env := newHybridEnv(t, 4, 1)
	env.putN(t, 8) // two full batches
	env.waitAnchors(t, 2)
	st := env.store.Stats()
	if st.AnchorsSubmitted != 2 || st.PendingEntries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFlushAnchorsPartialBatch(t *testing.T) {
	env := newHybridEnv(t, 100, 1)
	env.putN(t, 5)
	if st := env.store.Stats(); st.AnchorsSubmitted != 0 || st.PendingEntries != 5 {
		t.Fatalf("pre-flush stats = %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := env.store.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	env.waitAnchors(t, 1)
	if st := env.store.Stats(); st.PendingEntries != 0 {
		t.Fatalf("post-flush stats = %+v", st)
	}
	// Empty flush is a no-op.
	if err := env.store.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestAuditCleanStore(t *testing.T) {
	env := newHybridEnv(t, 4, 1)
	env.putN(t, 10) // 2 anchored batches + 2 pending
	env.waitAnchors(t, 2)
	rep := env.store.Audit()
	if !rep.Clean() {
		t.Fatalf("clean store failed audit: %+v", rep.Corruptions)
	}
	if rep.BatchesChecked != 2 || rep.EntriesChecked != 8 || rep.PendingEntries != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestAuditDetectsLogTamper(t *testing.T) {
	env := newHybridEnv(t, 4, 1)
	env.putN(t, 8)
	env.waitAnchors(t, 2)
	if !env.store.TamperLogEntry(1, 2, []byte("evil")) {
		t.Fatal("tamper failed")
	}
	rep := env.store.Audit()
	if rep.Clean() {
		t.Fatal("tampered log passed audit")
	}
	found := false
	for _, c := range rep.Corruptions {
		if c.Batch == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("corruption not attributed to batch 1: %+v", rep.Corruptions)
	}
}

func TestAuditDetectsCurrentValueTamper(t *testing.T) {
	env := newHybridEnv(t, 4, 1)
	env.putN(t, 4)
	env.waitAnchors(t, 1)
	if !env.store.TamperCurrentValue("key-2", []byte("evil")) {
		t.Fatal("tamper failed")
	}
	rep := env.store.Audit()
	if rep.Clean() {
		t.Fatal("tampered value passed audit")
	}
	found := false
	for _, c := range rep.Corruptions {
		if c.Key == "key-2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("corruption not attributed to key-2: %+v", rep.Corruptions)
	}
}

func TestAuditDetectsDeletedLogEntry(t *testing.T) {
	env := newHybridEnv(t, 4, 1)
	env.putN(t, 4)
	env.waitAnchors(t, 1)
	// Simulate deletion by overwriting with garbage the auditor can't
	// parse as the original (use TamperUnderlying through the store API).
	if !env.store.TamperLogEntry(1, 0, nil) {
		t.Fatal("tamper failed")
	}
	rep := env.store.Audit()
	if rep.Clean() {
		t.Fatal("deleted entry passed audit")
	}
}

func TestProofVerifiesAgainstAnchor(t *testing.T) {
	env := newHybridEnv(t, 4, 1)
	env.putN(t, 4)
	env.waitAnchors(t, 1)
	proof, root, err := env.store.ProveEntry(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := env.store.EntryBytes(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !merkle.Verify(root, raw, proof) {
		t.Fatal("valid proof rejected")
	}
	// A tampered entry fails against the anchored root.
	if merkle.Verify(root, append(raw, 'X'), proof) {
		t.Fatal("tampered entry verified")
	}
	// Unanchored batch: no proof.
	if _, _, err := env.store.ProveEntry(99, 0); err == nil {
		t.Fatal("proof for unanchored batch")
	}
}

func TestUpdatesTrackLatestValue(t *testing.T) {
	env := newHybridEnv(t, 2, 1)
	ctx := context.Background()
	_ = env.store.Put(ctx, "k", []byte("v1"))
	_ = env.store.Put(ctx, "k", []byte("v2")) // completes batch 1
	env.waitAnchors(t, 1)
	v, _ := env.store.Get("k")
	if string(v) != "v2" {
		t.Fatalf("got %q", v)
	}
	rep := env.store.Audit()
	if !rep.Clean() {
		t.Fatalf("update flow failed audit: %+v", rep.Corruptions)
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	env := newHybridEnv(t, 4, 1)
	env.putN(t, 2)
	ctx := context.Background()
	if err := env.store.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := env.store.Put(ctx, "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if err := env.store.Flush(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
	if err := env.store.Close(ctx); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// Close flushed the partial batch.
	env.waitAnchors(t, 1)
}

func TestTimeBasedFlush(t *testing.T) {
	env := newHybridEnv(t, 1000, 1) // size threshold unreachable
	// Reopen the store with a flush interval (newHybridEnv builds one
	// without); easier to build a second store against the same node.
	var seed [32]byte
	seed[0] = 5
	id := crypto.NewIdentityFromSeed("hybrid-writer", seed)
	hs, err := Open(Config{
		Stream:            "timed",
		BatchSize:         1000,
		FlushInterval:     30 * time.Millisecond,
		Sender:            blockchain.NewSender(env.node, id),
		Node:              env.node,
		WaitConfirmations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := hs.Put(ctx, "k0", []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // exceed the interval
	// The next write triggers the time-based flush of both entries.
	if err := hs.Put(ctx, "k1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if st := hs.Stats(); st.AnchorsSubmitted != 1 || st.PendingEntries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	rep := hs.Audit()
	if !rep.Clean() || rep.BatchesChecked != 1 || rep.EntriesChecked != 2 {
		t.Fatalf("audit = %+v", rep)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Open(Config{Stream: "s"}); err == nil {
		t.Fatal("missing sender/node accepted")
	}
}
