package blockchain

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"drams/internal/contract"
	"drams/internal/crypto"
)

// testIdentity builds a deterministic identity.
func testIdentity(t testing.TB, name string, seedByte byte) *crypto.Identity {
	t.Helper()
	var seed [32]byte
	copy(seed[:], name)
	seed[31] = seedByte
	return crypto.NewIdentityFromSeed(name, seed)
}

// kvContract is the chain tests' toy contract: "put" writes a JSON
// {key, value} under data/<key>, and the first caller to write a key owns
// it, so a later writer's transaction fails.
type kvContract struct{}

type kvArgs struct {
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

func (kvContract) Name() string { return "kv" }

func (kvContract) Execute(ctx contract.CallCtx, st contract.StateDB, call contract.Call) ([]contract.Event, error) {
	var args kvArgs
	if err := json.Unmarshal(call.Args, &args); err != nil {
		return nil, fmt.Errorf("%w: %v", contract.ErrBadArgs, err)
	}
	if call.Method != "put" {
		return nil, fmt.Errorf("%w: %q", contract.ErrUnknownMethod, call.Method)
	}
	if owner, ok := st.Get("owner/" + args.Key); ok && string(owner) != ctx.Caller {
		return nil, fmt.Errorf("kv: key %q owned by %q, caller is %q", args.Key, owner, ctx.Caller)
	}
	st.Set("owner/"+args.Key, []byte(ctx.Caller))
	st.Set("data/"+args.Key, args.Value)
	return []contract.Event{{Type: "Put", Payload: []byte(args.Key)}}, nil
}

// readKV reads a value kvContract wrote.
func readKV(st contract.StateDB, key string) ([]byte, bool) {
	return st.Get("data/" + key)
}

// testChainConfig builds a low-difficulty config with the kv contract and
// the given allowed identities.
func testChainConfig(t testing.TB, ids ...*crypto.Identity) Config {
	t.Helper()
	reg := contract.NewRegistry()
	reg.MustRegister(kvContract{})
	pubs := make([]crypto.PublicIdentity, len(ids))
	for i, id := range ids {
		pubs[i] = id.Public()
	}
	return Config{
		Difficulty: 4,
		Identities: pubs,
		Registry:   reg,
	}
}

func putCall(key, value string) contract.Call {
	args, _ := json.Marshal(kvArgs{Key: key, Value: []byte(value)})
	return contract.Call{Contract: "kv", Method: "put", Args: args}
}

// mineChild assembles and mines a block of txs on the given parent.
func mineChild(t testing.TB, c *Chain, parent crypto.Digest, txs ...Transaction) *Block {
	t.Helper()
	pb, ok := c.BlockByHash(parent)
	if !ok {
		t.Fatalf("parent %s unknown", parent.Short())
	}
	b := &Block{
		Header: BlockHeader{
			Height:       pb.Header.Height + 1,
			PrevHash:     parent,
			MerkleRoot:   ComputeMerkleRoot(txs),
			TimeUnixNano: pb.Header.TimeUnixNano + int64(100*time.Millisecond),
			Difficulty:   c.Config().Difficulty,
			Miner:        "test-miner",
		},
		Txs: txs,
	}
	if !Mine(context.Background(), b, 0) {
		t.Fatal("mining failed")
	}
	return b
}

// framed pairs b with its hash and a fresh encoding, as a gossiped frame
// arrives.
func framed(b *Block) framedBlock {
	return framedBlock{b, b.Hash(), b.Encode()}
}

func TestGenesis(t *testing.T) {
	c := NewChain(testChainConfig(t))
	hash, height := c.Head()
	if height != 0 {
		t.Fatalf("genesis height = %d", height)
	}
	if hash != c.Genesis() {
		t.Fatal("head is not genesis")
	}
	// Two chains with the same config share a genesis.
	c2 := NewChain(testChainConfig(t))
	if c2.Genesis() != c.Genesis() {
		t.Fatal("genesis not deterministic")
	}
}

func TestAddBlockExtendsHead(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	tx, err := NewTransaction(alice, 1, putCall("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	b := mineChild(t, c, c.Genesis(), tx)
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if _, h := c.Head(); h != 1 {
		t.Fatalf("height = %d", h)
	}
	// State applied.
	var got []byte
	c.ReadState("kv", func(st contract.StateDB) {
		got, _ = readKV(st, "k")
	})
	if string(got) != "v" {
		t.Fatalf("state = %q", got)
	}
	// Receipt recorded with 1 confirmation.
	rec, conf, err := c.Receipt(tx.ID())
	if err != nil || !rec.OK || conf != 1 {
		t.Fatalf("receipt = %+v conf=%d err=%v", rec, conf, err)
	}
}

func TestAddBlockRejectsDuplicates(t *testing.T) {
	c := NewChain(testChainConfig(t))
	b := mineChild(t, c, c.Genesis())
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); !errors.Is(err, ErrKnownBlock) {
		t.Fatalf("got %v", err)
	}
}

func TestAddBlockRejectsOrphan(t *testing.T) {
	c := NewChain(testChainConfig(t))
	b := mineChild(t, c, c.Genesis())
	b.Header.PrevHash = crypto.Sum([]byte("nowhere"))
	_ = Mine(context.Background(), b, 0)
	if err := c.AddBlock(b); !errors.Is(err, ErrOrphanBlock) {
		t.Fatalf("got %v", err)
	}
}

func TestAddBlockRejectsBadPoW(t *testing.T) {
	c := NewChain(testChainConfig(t))
	b := mineChild(t, c, c.Genesis())
	// Find a nonce that does NOT meet difficulty.
	for meets(b.Hash(), b.Header.Difficulty) {
		b.Header.Nonce++
	}
	if err := c.AddBlock(b); !errors.Is(err, ErrBadPoW) {
		t.Fatalf("got %v", err)
	}
}

func TestAddBlockRejectsBadMerkleRoot(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	tx, _ := NewTransaction(alice, 1, putCall("k", "v"))
	b := mineChild(t, c, c.Genesis(), tx)
	b.Txs = nil // header root no longer matches
	// Re-mine so PoW passes and the failure is attributable to the root.
	_ = Mine(context.Background(), b, 0)
	if err := c.AddBlock(b); !errors.Is(err, ErrBadMerkleRoot) {
		t.Fatalf("got %v", err)
	}
}

func TestAddBlockRejectsBadHeight(t *testing.T) {
	c := NewChain(testChainConfig(t))
	b := mineChild(t, c, c.Genesis())
	b.Header.Height = 5
	_ = Mine(context.Background(), b, 0)
	if err := c.AddBlock(b); !errors.Is(err, ErrBadHeight) {
		t.Fatalf("got %v", err)
	}
}

func TestAddBlockRejectsUnknownSender(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	mallory := testIdentity(t, "mallory", 66)
	c := NewChain(testChainConfig(t, alice)) // mallory not allowlisted
	tx, _ := NewTransaction(mallory, 1, putCall("k", "v"))
	b := mineChild(t, c, c.Genesis(), tx)
	if err := c.AddBlock(b); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("got %v", err)
	}
}

func TestAddBlockRejectsForgedKey(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	mallory := testIdentity(t, "mallory", 66)
	c := NewChain(testChainConfig(t, alice))
	// Mallory signs with her own key but claims to be alice.
	tx := Transaction{From: "mallory", ExpiresAt: TxLifetime, Call: putCall("k", "v")}
	if err := tx.Sign(mallory); err != nil {
		t.Fatal(err)
	}
	tx.From = "alice" // forged sender; signature now stale too
	b := mineChild(t, c, c.Genesis(), tx)
	if err := c.AddBlock(b); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("got %v", err)
	}
}

// signedTx signs a call from id that expires at the given height.
func signedTx(t *testing.T, id *crypto.Identity, expiresAt uint64, call contract.Call) Transaction {
	t.Helper()
	tx := Transaction{From: id.Name(), ExpiresAt: expiresAt, Call: call}
	if err := tx.Sign(id); err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestReplayAndExpiryEnforced: a block at height h carries a transaction
// only if h <= ExpiresAt <= h+E and no earlier block of its branch carries
// it. Order is not checked: one sender's transactions go in any order.
func TestReplayAndExpiryEnforced(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	for name, tx := range map[string]Transaction{
		"expired":       signedTx(t, alice, 0, putCall("a", "0")),
		"not yet valid": signedTx(t, alice, 1+TxLifetime+1, putCall("a", "0")),
	} {
		if err := c.AddBlock(mineChild(t, c, c.Genesis(), tx)); !errors.Is(err, ErrTxExpired) {
			t.Fatalf("%s tx at height 1: %v", name, err)
		}
	}
	tx, _ := NewTransaction(alice, 0, putCall("a", "1"))
	if err := c.AddBlock(mineChild(t, c, c.Genesis(), tx, tx)); !errors.Is(err, ErrKnownTx) {
		t.Fatalf("tx twice in one block: %v", err)
	}
	later, _ := NewTransaction(alice, 0, putCall("b", "2"))
	b1 := mineChild(t, c, c.Genesis(), later, tx, signedTx(t, alice, 1, putCall("c", "3")))
	if err := c.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(mineChild(t, c, b1.Hash(), tx)); !errors.Is(err, ErrKnownTx) {
		t.Fatalf("replay on the best chain: %v", err)
	}
	b3 := b1
	for i := 0; i < 2; i++ {
		b3 = mineChild(t, c, b3.Hash())
		if err := c.AddBlock(b3); err != nil {
			t.Fatal(err)
		}
	}

	// A side branch forking at genesis does not carry tx, so it may; once it
	// does, its next block may not, though the best chain is no help there.
	s1 := mineChild(t, c, c.Genesis(), tx)
	if err := c.AddBlock(s1); err != nil {
		t.Fatalf("side branch without tx: %v", err)
	}
	if err := c.AddBlock(mineChild(t, c, s1.Hash(), tx)); !errors.Is(err, ErrKnownTx) {
		t.Fatalf("replay on a side branch: %v", err)
	}
	// A side branch forking above b1 inherits b1's transactions.
	if err := c.AddBlock(mineChild(t, c, b1.Hash(), later)); !errors.Is(err, ErrKnownTx) {
		t.Fatalf("replay below a side branch's fork point: %v", err)
	}
	if h, _ := c.Head(); h != b3.Hash() {
		t.Fatal("a side branch took the head")
	}
}

// extend mines and imports n blocks on c's head, each carrying what fill
// returns for its height; nil fill mines empty blocks.
func extend(t *testing.T, c *Chain, n int, fill func(height uint64) []Transaction) {
	t.Helper()
	for range n {
		head, height := c.Head()
		var txs []Transaction
		if fill != nil {
			txs = fill(height + 1)
		}
		if err := c.AddBlock(mineChild(t, c, head, txs...)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReorgBranchRefusesReplayBelowReceiptWindow: a side branch answers
// for the best chain below its fork point from receipts only within the
// receipt window; below it, from the best-chain blocks' kept IDs. T is mined
// at g = ExpiresAt-E, the best chain grows until T's receipt is gone, and a
// side-branch block at ExpiresAt that carries T again must still be refused.
func TestReorgBranchRefusesReplayBelowReceiptWindow(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	const g = 1
	tx := signedTx(t, alice, g+TxLifetime, putCall("t", "once"))
	if err := c.AddBlock(mineChild(t, c, c.Genesis(), tx)); err != nil {
		t.Fatal(err)
	}
	extend(t, c, TxLifetime+1, nil)
	if _, _, err := c.Receipt(tx.ID()); !errors.Is(err, ErrTxNotFound) {
		t.Fatalf("receipt of a tx mined at %d with the head at %d: %v", g, c.Height(), err)
	}
	parent, _ := c.BlockByHeight(tx.ExpiresAt - 1)
	if onBranch, _ := c.carried(parent.Hash(), []crypto.Digest{tx.ID()}, nil); !onBranch[0] {
		t.Error("carried: the best chain below the receipt window does not carry T")
	}
	side := mineChild(t, c, parent.Hash(), tx)
	if err := c.AddBlock(side); !errors.Is(err, ErrKnownTx) {
		t.Fatalf("side branch at %d replaying a tx mined at %d: %v", side.Header.Height, g, err)
	}
}

// TestReceiptWindow: receipts answer for the best chain's top E+1 blocks
// and no lower, as blocks extend the head and after a reorg undoes the head
// block to its fork point and applies the branch's two blocks.
func TestReceiptWindow(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	// The block at height h carries h%3 transactions.
	byHeight := map[uint64][]Transaction{}
	extend(t, c, 3*TxLifetime, func(h uint64) []Transaction {
		for j := range h % 3 {
			tx, err := NewTransaction(alice, h-1, putCall(fmt.Sprintf("k%d-%d", h, j), "v"))
			if err != nil {
				t.Fatal(err)
			}
			byHeight[h] = append(byHeight[h], tx)
		}
		return byHeight[h]
	})
	const maxPerBlock = 2
	check := func(when string) {
		t.Helper()
		c.mu.RLock()
		kept := len(c.receipts)
		for hash := range c.events {
			if h := c.blocks[hash].header.Height; h+TxLifetime < uint64(len(c.bestChain)-1) || c.bestChain[h] != hash {
				t.Errorf("%s: events kept for block %s at %d, off the best chain or below its top E+1", when, hash.Short(), h)
			}
		}
		c.mu.RUnlock()
		if kept > (TxLifetime+1)*maxPerBlock {
			t.Errorf("%s: %d receipts kept, want at most %d", when, kept, (TxLifetime+1)*maxPerBlock)
		}
		head := c.Height()
		for h, txs := range byHeight {
			if b, _ := c.BlockByHeight(h); b == nil || len(b.Txs) != len(txs) || len(txs) > 0 && b.Txs[0].ID() != txs[0].ID() {
				continue // abandoned by the reorg
			}
			for _, tx := range txs {
				rec, conf, err := c.Receipt(tx.ID())
				switch {
				case h+TxLifetime < head:
					if !errors.Is(err, ErrTxNotFound) {
						t.Fatalf("%s: receipt at %d, head %d: %v", when, h, head, err)
					}
				case err != nil || rec.Height != h || conf != head-h+1:
					t.Fatalf("%s: receipt at %d, head %d: %+v conf %d err %v", when, h, head, rec, conf, err)
				}
			}
		}
	}
	check("after 3E blocks")

	// Fork below the head and overtake it: the second side block's parent is
	// not the head, so the chain undoes the head block and applies the branch.
	oldHead, height := c.Head()
	fork, _ := c.BlockByHeight(height - 1)
	tip := fork.Hash()
	for range 2 {
		b, _ := c.BlockByHash(tip)
		tx, _ := NewTransaction(alice, b.Header.Height, putCall(fmt.Sprintf("side-%d", b.Header.Height+1), "v"))
		side := mineChild(t, c, tip, tx)
		if err := c.AddBlock(side); err != nil {
			t.Fatal(err)
		}
		tip = side.Hash()
		byHeight[side.Header.Height] = []Transaction{tx}
	}
	if head, _ := c.Head(); head != tip || head == oldHead {
		t.Fatal("the side branch did not take the head")
	}
	if undone, applied := c.reorgUndone.Value(), c.reorgApplied.Value(); undone != 1 || applied < 1 || applied > 2 {
		t.Fatalf("the reorg undid %d blocks and applied %d; want 1, and 1 or 2", undone, applied)
	}
	check("after a reorg to the fork point")
}

func TestFailedTxIncludedWithoutStateChange(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	bob := testIdentity(t, "bob", 2)
	c := NewChain(testChainConfig(t, alice, bob))
	tx1, _ := NewTransaction(alice, 1, putCall("k", "alice's"))
	b1 := mineChild(t, c, c.Genesis(), tx1)
	if err := c.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	// Bob tries to overwrite alice's key: contract error, tx still mined.
	tx2, _ := NewTransaction(bob, 1, putCall("k", "bob's"))
	b2 := mineChild(t, c, b1.Hash(), tx2)
	if err := c.AddBlock(b2); err != nil {
		t.Fatal(err)
	}
	rec, _, err := c.Receipt(tx2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.OK || rec.Err == "" {
		t.Fatalf("receipt = %+v", rec)
	}
	var got []byte
	c.ReadState("kv", func(st contract.StateDB) { got, _ = readKV(st, "k") })
	if string(got) != "alice's" {
		t.Fatalf("state = %q", got)
	}
	// Bob's failed transaction is still spent.
	if err := c.AddBlock(mineChild(t, c, b2.Hash(), tx2)); !errors.Is(err, ErrKnownTx) {
		t.Fatalf("replayed failed tx: %v", err)
	}
}

// Call args are opaque bytes to the chain. A member's transaction whose args
// no contract can parse crosses the wire, keeps its ID and its signature,
// is mined and imported, and ends as a failed receipt: the contract's
// ErrBadArgs and nothing in state.
func TestNonJSONArgsEndAsFailedReceipt(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	var txs []Transaction
	for _, args := range hostileArgs {
		tx, err := NewTransaction(alice, 0, contract.Call{Contract: "kv", Method: "put", Args: args})
		if err != nil {
			t.Fatal(err)
		}
		wired, err := DecodeTx(EncodeTx(tx))
		if err != nil {
			t.Fatalf("args %q refused on the wire: %v", args, err)
		}
		if wired.ID() != tx.ID() {
			t.Fatalf("args %q: ID changed on the wire", args)
		}
		if err := c.Verifier().VerifyTx(&wired); err != nil {
			t.Fatalf("args %q: %v", args, err)
		}
		txs = append(txs, wired)
	}
	b, err := DecodeBlock(mineChild(t, c, c.Genesis(), txs...).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	for i := range txs {
		rec, _, err := c.Receipt(txs[i].ID())
		if err != nil {
			t.Fatal(err)
		}
		if rec.OK || !strings.Contains(rec.Err, contract.ErrBadArgs.Error()) {
			t.Errorf("args %q: receipt = %+v, want a bad-args failure", hostileArgs[i], rec)
		}
	}
	c.ReadState("kv", func(st contract.StateDB) {
		if keys := slices.Collect(st.Keys("")); len(keys) != 0 {
			t.Errorf("unparseable args wrote state: %v", keys)
		}
	})
}

// Several senders write the same kvContract key in one block: transactions
// apply in block order, so the first writer owns the key and every later
// writer fails with the ownership error.
func TestContestedKeyInOneBlockFirstWriterOwns(t *testing.T) {
	var ids []*crypto.Identity
	for i := 0; i < 8; i++ {
		ids = append(ids, testIdentity(t, fmt.Sprintf("sender-%d", i), byte(i+1)))
	}
	c := NewChain(testChainConfig(t, ids...))
	var txs []Transaction
	for _, id := range ids {
		tx, err := NewTransaction(id, 1, putCall("contested", "mine-"+id.Name()))
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	if err := c.AddBlock(mineChild(t, c, c.Genesis(), txs...)); err != nil {
		t.Fatal(err)
	}
	for i := range txs {
		rec, _, err := c.Receipt(txs[i].ID())
		if err != nil {
			t.Fatal(err)
		}
		if owns := i == 0; rec.OK != owns || (!owns && !strings.Contains(rec.Err, `owned by "sender-0"`)) {
			t.Fatalf("tx %d receipt = %+v, want OK=%v (the ownership error otherwise)", i, rec, owns)
		}
	}
	var got []byte
	c.ReadState("kv", func(st contract.StateDB) { got, _ = readKV(st, "contested") })
	if string(got) != "mine-sender-0" {
		t.Fatalf("state = %q, want the first writer's value", got)
	}
}

func TestForkChoiceLongestChain(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	txA, _ := NewTransaction(alice, 1, putCall("branch", "A"))
	txB, _ := NewTransaction(alice, 1, putCall("branch", "B"))

	// Branch A: one block.
	a1 := mineChild(t, c, c.Genesis(), txA)
	if err := c.AddBlock(a1); err != nil {
		t.Fatal(err)
	}
	headAfterA, _ := c.Head()
	if headAfterA != a1.Hash() {
		t.Fatal("head should be a1")
	}

	// Branch B: two blocks from genesis → longer → reorg.
	b1 := mineChild(t, c, c.Genesis(), txB)
	// b1 must differ from a1; different tx content guarantees it.
	if err := c.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	// Equal height: head must be the tie-break winner (lexicographically
	// smaller hash), whichever branch that is.
	a1h, b1h := a1.Hash(), b1.Hash()
	wantTie := a1h
	if string(b1h[:]) < string(a1h[:]) {
		wantTie = b1h
	}
	if h, _ := c.Head(); h != wantTie {
		t.Fatalf("equal-height tie break: head %s, want %s", h.Short(), wantTie.Short())
	}
	tx2, _ := NewTransaction(alice, 2, putCall("extra", "x"))
	b2 := mineChild(t, c, b1.Hash(), tx2)
	if err := c.AddBlock(b2); err != nil {
		t.Fatal(err)
	}
	if h, height := c.Head(); h != b2.Hash() || height != 2 {
		t.Fatalf("reorg failed: head=%s height=%d", h.Short(), height)
	}
	// State must reflect branch B only.
	var branch, extra []byte
	c.ReadState("kv", func(st contract.StateDB) {
		branch, _ = readKV(st, "branch")
		extra, _ = readKV(st, "extra")
	})
	if string(branch) != "B" || string(extra) != "x" {
		t.Fatalf("post-reorg state branch=%q extra=%q", branch, extra)
	}
	// txA is no longer on the best chain.
	if _, _, err := c.Receipt(txA.ID()); !errors.Is(err, ErrTxNotFound) {
		t.Fatalf("txA receipt after reorg: %v", err)
	}
	// Best chain hashes reflect branch B.
	hashes := c.BestChainHashes()
	if len(hashes) != 3 || hashes[1] != b1.Hash() || hashes[2] != b2.Hash() {
		t.Fatalf("best chain = %v", hashes)
	}
}

func TestEqualWorkTieBreakDeterministic(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	// Build two single-block branches on two chains, then cross-feed; both
	// chains must pick the same winner.
	c1 := NewChain(testChainConfig(t, alice))
	c2 := NewChain(testChainConfig(t, alice))
	txA, _ := NewTransaction(alice, 1, putCall("b", "A"))
	txB, _ := NewTransaction(alice, 1, putCall("b", "B"))
	a := mineChild(t, c1, c1.Genesis(), txA)
	b := mineChild(t, c2, c2.Genesis(), txB)
	for _, blk := range []*Block{a, b} {
		if err := c1.AddBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	for _, blk := range []*Block{b, a} { // reverse arrival order
		if err := c2.AddBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	h1, _ := c1.Head()
	h2, _ := c2.Head()
	if h1 != h2 {
		t.Fatalf("tie break diverged: %s vs %s", h1.Short(), h2.Short())
	}
	if c1.StateDigest() != c2.StateDigest() {
		t.Fatal("states diverged on equal-work tie")
	}
}

// TestDifficultyScheduleValidated: a block is valid only at the chain's
// one difficulty. An easier block is rejected, and so is a harder one: were
// it accepted, a branch could outweigh a longer one and fork choice by
// height would no longer pick the branch with the most work.
func TestDifficultyScheduleValidated(t *testing.T) {
	c := NewChain(testChainConfig(t))
	for _, d := range []uint8{2, 6} { // the chain's is 4
		b := mineChild(t, c, c.Genesis())
		b.Header.Difficulty = d
		_ = Mine(context.Background(), b, 0)
		if err := c.AddBlock(b); !errors.Is(err, ErrBadDifficulty) {
			t.Fatalf("difficulty %d: got %v", d, err)
		}
	}
}

func TestHeadSubscription(t *testing.T) {
	c := NewChain(testChainConfig(t))
	ch, cancel := c.SubscribeHead()
	defer cancel()
	b := mineChild(t, c, c.Genesis())
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no head notification")
	}
}

func TestStateDigestConvergenceAcrossReplicas(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	mk := func() *Chain { return NewChain(testChainConfig(t, alice)) }
	c1, c2 := mk(), mk()
	parent := c1.Genesis()
	var blocks []*Block
	for i := 1; i <= 5; i++ {
		tx, _ := NewTransaction(alice, uint64(i), putCall(fmt.Sprintf("k%d", i), "v"))
		b := mineChild(t, c1, parent, tx)
		if err := c1.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		parent = b.Hash()
	}
	// Feed replica out of order: orphans rejected, so apply in order but
	// interleave duplicates.
	for _, b := range blocks {
		if err := c2.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		_ = c2.AddBlock(b) // duplicate
	}
	if c1.StateDigest() != c2.StateDigest() {
		t.Fatal("replicas diverged")
	}
	if c1.Height() != 5 || c2.Height() != 5 {
		t.Fatalf("heights %d/%d", c1.Height(), c2.Height())
	}
}

func TestBlockByHeight(t *testing.T) {
	c := NewChain(testChainConfig(t))
	b := mineChild(t, c, c.Genesis())
	_ = c.AddBlock(b)
	got, ok := c.BlockByHeight(1)
	if !ok || got.Hash() != b.Hash() {
		t.Fatal("BlockByHeight(1) wrong")
	}
	if _, ok := c.BlockByHeight(9); ok {
		t.Fatal("phantom height")
	}
	gen, ok := c.BlockByHeight(0)
	if !ok || gen.Hash() != c.Genesis() {
		t.Fatal("BlockByHeight(0) should be genesis")
	}
}

// Property-style test: any single-bit mutation of a valid block must be
// rejected (identity of the log store, paper §II).
func TestAnyHeaderMutationRejected(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	base := NewChain(testChainConfig(t, alice))
	tx, _ := NewTransaction(alice, 1, putCall("k", "v"))
	b := mineChild(t, base, base.Genesis(), tx)

	mutations := []func(*Block){
		func(m *Block) { m.Header.Height++ },
		func(m *Block) { m.Header.PrevHash[0] ^= 1 },
		func(m *Block) { m.Header.MerkleRoot[0] ^= 1 },
		func(m *Block) { m.Header.Nonce++ },
		func(m *Block) { m.Header.Difficulty-- },
		func(m *Block) { m.Txs[0].ExpiresAt++ },
		func(m *Block) { m.Txs[0].Salt[0] ^= 1 },
		func(m *Block) { m.Txs[0].Signature[0] ^= 1 },
		func(m *Block) { m.Txs[0].From = "other" },
	}
	for i, mutate := range mutations {
		c := NewChain(testChainConfig(t, alice))
		cp := *b
		cp.Txs = append([]Transaction(nil), b.Txs...)
		cp.Txs[0].Signature = append([]byte(nil), b.Txs[0].Signature...)
		mutate(&cp)
		if err := c.AddBlock(&cp); err == nil {
			// The only acceptable outcome would be a *different valid block*,
			// which a blind mutation cannot produce except with 2^-difficulty
			// luck on the nonce field; treat success as failure.
			if cp.Hash() == b.Hash() {
				t.Fatalf("mutation %d produced identical block", i)
			}
			if !meets(cp.Hash(), cp.Header.Difficulty) {
				t.Fatalf("mutation %d accepted without valid PoW", i)
			}
		}
	}
}

// TestReadStateDuringReorg: contract state has no lock of its own, so every
// reader goes through the chain's lock. Readers walk a contract's keys, read
// a contract that has stored nothing and take the digest while blocks apply
// and a longer branch makes the chain rebuild its state.
func TestReadStateDuringReorg(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	extend := func(parent crypto.Digest, n int, tag string) crypto.Digest {
		for i := range n {
			b, _ := c.BlockByHash(parent)
			tx, err := NewTransaction(alice, b.Header.Height, putCall(fmt.Sprintf("%s-%d", tag, i), tag))
			if err != nil {
				t.Fatal(err)
			}
			child := mineChild(t, c, parent, tx)
			if err := c.AddBlock(child); err != nil {
				t.Fatal(err)
			}
			parent = child.Hash()
		}
		return parent
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.ReadState("kv", func(st contract.StateDB) {
					for k := range st.Keys("") {
						st.Get(k)
					}
				})
				c.ReadState("anchor", func(st contract.StateDB) { st.Get("x") })
				c.StateDigest()
			}
		}()
	}
	fork := extend(c.Genesis(), 4, "main")
	extend(fork, 6, "side")
	extend(fork, 8, "branch") // longer: the chain rebuilds state from genesis
	close(stop)
	wg.Wait()
	var keys []string
	c.ReadState("kv", func(st contract.StateDB) { keys = slices.Collect(st.Keys("data/")) })
	if len(keys) != 12 {
		t.Fatalf("%d kv rows after the reorg, want 12 (4 main, 8 branch, none of side): %v", len(keys), keys)
	}
}
