package blockchain

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"drams/internal/crypto"
	"drams/internal/netsim"
)

// testTxs builds n valid transactions from the given identity, signed at
// genesis.
func testTxs(t testing.TB, id *crypto.Identity, n int) []Transaction {
	t.Helper()
	txs := make([]Transaction, n)
	for i := range txs {
		tx, err := NewTransaction(id, 0, putCall(fmt.Sprintf("k%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	return txs
}

// TestVerifyBatchMatchesSequential checks that the verifier accepts and
// rejects exactly the transactions a fresh verifier does one at a time,
// including a corrupted signature and an unknown sender planted mid-batch.
func TestVerifyBatchMatchesSequential(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	mallory := testIdentity(t, "mallory", 66) // not registered
	reg := NewIdentityRegistry(alice.Public())
	txs := testTxs(t, alice, 32)

	txs[17].Signature[0] ^= 0xFF // corrupt one signature mid-batch
	bad, err := NewTransaction(mallory, 1, putCall("m", "v"))
	if err != nil {
		t.Fatal(err)
	}
	txs[23] = bad

	v := NewTxVerifier(reg, VerifierConfig{})
	got := v.VerifyBatch(txs)
	for i := range txs {
		want := NewTxVerifier(reg, VerifierConfig{}).VerifyTx(&txs[i])
		if (got[i] == nil) != (want == nil) {
			t.Fatalf("tx %d: batch err %v, sequential err %v", i, got[i], want)
		}
	}
	if !errors.Is(got[17], ErrBadSignature) {
		t.Fatalf("tx 17 err = %v, want ErrBadSignature", got[17])
	}
	if !errors.Is(got[23], ErrUnknownIdentity) {
		t.Fatalf("tx 23 err = %v, want ErrUnknownIdentity", got[23])
	}
	if err := verifyEach(v, txs); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("verifyEach err = %v, want first failure", err)
	}
	if v.Stats().Failures != 3 { // 2 from VerifyBatch + the first from verifyEach
		t.Fatalf("failures = %d", v.Stats().Failures)
	}
}

// verifyEach verifies txs one after another, as block validation does, and
// returns the first failure with its index.
func verifyEach(v *TxVerifier, txs []Transaction) error {
	for i := range txs {
		if err := v.VerifyTx(&txs[i]); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
	}
	return nil
}

// TestVerifierCacheSkipsReverification checks that a second pass over the
// same transactions performs no new signature verifications.
func TestVerifierCacheSkipsReverification(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	reg := NewIdentityRegistry(alice.Public())
	txs := testTxs(t, alice, 16)
	v := NewTxVerifier(reg, VerifierConfig{})

	if err := verifyEach(v, txs); err != nil {
		t.Fatal(err)
	}
	first := v.Stats()
	if first.Verified != 16 || first.CacheHits != 0 {
		t.Fatalf("cold pass stats = %+v", first)
	}
	if err := verifyEach(v, txs); err != nil {
		t.Fatal(err)
	}
	second := v.Stats()
	if second.Verified != first.Verified {
		t.Fatalf("warm pass re-verified: %d -> %d", first.Verified, second.Verified)
	}
	if second.CacheHits != 16 {
		t.Fatalf("warm pass hits = %d", second.CacheHits)
	}
	// Single-tx path hits the same cache.
	if err := v.VerifyTx(&txs[3]); err != nil {
		t.Fatal(err)
	}
	if v.Stats().Verified != first.Verified {
		t.Fatal("VerifyTx re-verified a cached transaction")
	}
}

// TestVerifierFailedTxNotCached checks that a rejected transaction is
// re-checked (and re-rejected) on every attempt.
func TestVerifierFailedTxNotCached(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	reg := NewIdentityRegistry(alice.Public())
	tx := testTxs(t, alice, 1)[0]
	tx.Signature[0] ^= 0xFF
	v := NewTxVerifier(reg, VerifierConfig{})
	for i := 0; i < 2; i++ {
		if err := v.VerifyTx(&tx); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	if v.Stats().Verified != 2 {
		t.Fatalf("verified = %d, want 2 (failures must not be cached)", v.Stats().Verified)
	}
}

// TestVerifierMemo pins the memo's shape: it holds at most two generations
// of transaction IDs, keeps the most recent, never remembers a failure, and
// has no clock, so only traffic rotates it.
func TestVerifierMemo(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	v := NewTxVerifier(NewIdentityRegistry(alice.Public()), VerifierConfig{})
	if v.memo.clk != nil {
		t.Fatal("the verifier memo rotates with time")
	}
	const gen = 8
	v.memo = newSeenCache(gen, nil)
	txs := testTxs(t, alice, 5*gen)
	if err := verifyEach(v, txs); err != nil {
		t.Fatal(err)
	}
	if got := v.memo.len(); got > 2*gen {
		t.Fatalf("memo holds %d IDs, bound two generations of %d", got, gen)
	}
	before := v.Stats().Verified
	if err := verifyEach(v, txs[len(txs)-gen:]); err != nil {
		t.Fatal(err)
	}
	if v.Stats().Verified != before {
		t.Fatal("the most recent generation was re-verified")
	}

	bad := testTxs(t, alice, 1)[0]
	bad.Signature[0] ^= 0xFF
	held := v.memo.len()
	for i := 0; i < 2; i++ {
		if err := v.VerifyTx(&bad); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	if v.memo.len() != held || v.memo.has(bad.ID()) {
		t.Fatal("a failed verification was remembered")
	}
}

// TestVerifierConcurrent hammers overlapping batches from several
// goroutines through a memo small enough to rotate; run under -race this
// checks the memo's locking.
func TestVerifierConcurrent(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	bob := testIdentity(t, "bob", 2)
	reg := NewIdentityRegistry(alice.Public(), bob.Public())
	txsA := testTxs(t, alice, 64)
	txsB := make([]Transaction, 64)
	for i := range txsB {
		tx, err := NewTransaction(bob, 0, putCall(fmt.Sprintf("b%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		txsB[i] = tx
	}
	v := NewTxVerifier(reg, VerifierConfig{})
	v.memo = newSeenCache(32, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				batch := txsA
				if (g+iter)%2 == 0 {
					batch = txsB
				}
				if err := verifyEach(v, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestVerifierChecksConcurrentCopiesOnce: copies of one transaction that
// reach the verifier at the same moment (two links, or a block while the
// gossiped copy is checked) cost one ed25519 verification: the callers that
// find it in flight wait for its outcome. Each round releases the callers
// together on a transaction the verifier has not seen. A forged one fails
// for every caller, whether it waited or checked: a failure is not
// remembered, so a caller that comes after the check ended checks again.
func TestVerifierChecksConcurrentCopiesOnce(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	v := NewTxVerifier(NewIdentityRegistry(alice.Public()), VerifierConfig{})
	const callers, rounds = 16, 40
	txs := testTxs(t, alice, rounds)
	txs[rounds-1].Signature[0] ^= 0xFF
	for round, tx := range txs {
		before := v.Stats()
		start := make(chan struct{})
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = v.VerifyTx(&tx)
			}()
		}
		close(start)
		wg.Wait()
		forged := round == rounds-1
		for i, err := range errs {
			if forged != (err != nil) || (forged && !errors.Is(err, ErrBadSignature)) {
				t.Fatalf("round %d, caller %d: err = %v (forged %v)", round, i, err, forged)
			}
		}
		st := v.Stats()
		if forged {
			continue
		}
		if got := st.Verified - before.Verified; got != 1 {
			t.Fatalf("round %d: %d callers made %d ed25519 verifications, want 1", round, callers, got)
		}
		if got := st.CacheMisses - before.CacheMisses; got != 1 {
			t.Fatalf("round %d: %d memo misses fell through to verification, want 1", round, got)
		}
		if got := st.CacheHits - before.CacheHits; got != callers-1 {
			t.Fatalf("round %d: %d hits, want %d", round, got, callers-1)
		}
	}
}

// TestChainRejectsBadSignatureInBlock checks the batch path still rejects a
// block carrying one transaction whose signature was corrupted after
// signing (the A8 forgery case), end to end through AddBlock.
func TestChainRejectsBadSignatureInBlock(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	txs := testTxs(t, alice, 8)
	txs[5].Signature[0] ^= 0xFF
	b := mineChild(t, c, c.Genesis(), txs...)
	if err := c.AddBlock(b); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("AddBlock err = %v, want ErrBadSignature", err)
	}
	if _, h := c.Head(); h != 0 {
		t.Fatalf("bad block extended the chain to height %d", h)
	}
}

// TestAddBlockRejectsStructurallyInvalidBeforeVerifying checks the DoS
// ordering: a block that fails a cheap structural check (bad PoW, wrong
// difficulty, orphan) must be rejected before any ed25519 work is spent on
// its transactions.
func TestAddBlockRejectsStructurallyInvalidBeforeVerifying(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	txs := testTxs(t, alice, 8)

	unmined := &Block{
		Header: BlockHeader{
			Height:     1,
			PrevHash:   c.Genesis(),
			MerkleRoot: ComputeMerkleRoot(txs),
			Difficulty: 4,
			Miner:      "cheap-forgery",
		},
		Txs: txs,
	}
	for meets(unmined.Hash(), unmined.Header.Difficulty) { // one header in 16 meets it by chance
		unmined.Header.Nonce++
	}
	if err := c.AddBlock(unmined); !errors.Is(err, ErrBadPoW) {
		t.Fatalf("AddBlock err = %v, want ErrBadPoW", err)
	}
	orphan := mineChild(t, c, c.Genesis(), txs...)
	orphan.Header.PrevHash = crypto.Sum([]byte("unknown-parent")) // now an orphan (and stale PoW, but parent check wins)
	if err := c.AddBlock(orphan); !errors.Is(err, ErrOrphanBlock) {
		t.Fatalf("AddBlock err = %v, want ErrOrphanBlock", err)
	}
	if v := c.Verifier().Stats().Verified; v != 0 {
		t.Fatalf("structurally invalid blocks cost %d signature verifications", v)
	}
}

// TestBlockValidationUsesAdmissionCache checks the pipeline contract: a
// transaction verified at mempool admission is not re-verified when the
// block containing it is validated.
func TestBlockValidationUsesAdmissionCache(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 11})
	defer net.Close()
	n, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	txs := testTxs(t, alice, 8)
	for _, tx := range txs {
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	verifiedAtAdmission := n.Stats().Verifier.Verified
	b := mineChild(t, n.Chain(), n.Chain().Genesis(), txs...)
	if err := n.Chain().AddBlock(b); err != nil {
		t.Fatal(err)
	}
	after := n.Stats().Verifier
	if after.Verified != verifiedAtAdmission {
		t.Fatalf("block validation re-verified: %d -> %d", verifiedAtAdmission, after.Verified)
	}
}

// TestGossipBatchedAdmission checks that gossiped transactions reach a
// peer's mempool, and that the peer verifies each unique transaction at most
// once despite the flood and the rebroadcasts.
func TestGossipBatchedAdmission(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 13})
	defer net.Close()
	peers := []string{"a", "b"}
	a, err := NewNode(NodeConfig{Name: "a", Chain: testChainConfig(t, alice), Network: net, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(NodeConfig{Name: "b", Chain: testChainConfig(t, alice), Network: net, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()
	a.Start()
	b.Start()

	txs := testTxs(t, alice, 16)
	for _, tx := range txs {
		if err := a.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		return b.Mempool().Len() == len(txs)
	}, "gossiped txs admitted at peer")
	if v := b.Stats().Verifier.Verified; v > int64(len(txs)) {
		t.Fatalf("peer verified %d times for %d txs", v, len(txs))
	}
}

// TestGossipTxVerifiedBeforeItsBlock checks that admission keeps pace with
// the link: a peer sends N transactions and then the block carrying them
// over one latency-bearing link, and by the time the block is validated
// every transaction was verified at admission, so the follower checks each
// signature once and block validation is all memo hits.
func TestGossipTxVerifiedBeforeItsBlock(t *testing.T) {
	const n = 12
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{BaseLatency: time.Millisecond, Jitter: time.Millisecond, Seed: 17})
	defer net.Close()
	follower, err := NewNode(NodeConfig{Name: "follower", Chain: testChainConfig(t, alice), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Stop()
	peer, err := net.Register("peer")
	if err != nil {
		t.Fatal(err)
	}

	txs := testTxs(t, alice, n)
	b := mineChild(t, follower.Chain(), follower.Chain().Genesis(), txs...)
	for _, tx := range txs {
		if err := peer.Send("follower", WireTx, EncodeTx(tx)); err != nil {
			t.Fatal(err)
		}
	}
	if err := peer.Send("follower", WireBlock, b.Encode()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return follower.Chain().Height() == 1 }, "block never imported")

	st := follower.Stats().Verifier
	if st.Verified != n {
		t.Fatalf("follower verified %d signatures for %d txs", st.Verified, n)
	}
	if st.CacheMisses != n || st.CacheHits != n {
		t.Fatalf("memo lookups: %d misses, %d hits; want %d admission misses and %d block-validation hits",
			st.CacheMisses, st.CacheHits, n, n)
	}
}
