package blockchain

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
)

func TestTransactionSignVerify(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	reg := NewIdentityRegistry(alice.Public())
	tx, err := NewTransaction(alice, 1, putCall("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewTxVerifier(reg, VerifierConfig{}).VerifyTx(&tx); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionSignNameMismatch(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	tx := Transaction{From: "bob", Call: putCall("k", "v")}
	if err := tx.Sign(alice); err == nil {
		t.Fatal("signing with mismatched From accepted")
	}
}

func TestVerifyRejectsTamperedFields(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	reg := NewIdentityRegistry(alice.Public())
	base, _ := NewTransaction(alice, 1, putCall("k", "v"))

	cases := map[string]func(*Transaction){
		"salt":      func(tx *Transaction) { tx.Salt[7] ^= 1 },
		"expiry":    func(tx *Transaction) { tx.ExpiresAt++ },
		"call":      func(tx *Transaction) { tx.Call = putCall("k", "EVIL") },
		"signature": func(tx *Transaction) { tx.Signature[0] ^= 1 },
		"pubkey":    func(tx *Transaction) { tx.PubKey[0] ^= 1 },
	}
	for name, mutate := range cases {
		tx := base
		tx.Signature = append([]byte(nil), base.Signature...)
		tx.PubKey = append([]byte(nil), base.PubKey...)
		mutate(&tx)
		if err := NewTxVerifier(reg, VerifierConfig{}).VerifyTx(&tx); err == nil {
			t.Errorf("tampered %s accepted", name)
		}
	}
}

func TestVerifyUnknownSender(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	reg := NewIdentityRegistry() // empty allowlist
	tx, _ := NewTransaction(alice, 1, putCall("k", "v"))
	if err := NewTxVerifier(reg, VerifierConfig{}).VerifyTx(&tx); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("got %v", err)
	}
	reg = NewIdentityRegistry(alice.Public())
	if err := NewTxVerifier(reg, VerifierConfig{}).VerifyTx(&tx); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 {
		t.Fatalf("len = %d", reg.Len())
	}
}

func TestTxIDUniqueness(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	tx1, _ := NewTransaction(alice, 1, putCall("k", "v"))
	tx2, _ := NewTransaction(alice, 2, putCall("k", "v"))
	tx3, _ := NewTransaction(alice, 1, putCall("k", "w"))
	// The same call signed twice at one head: the salts tell them apart.
	tx1b, _ := NewTransaction(alice, 1, putCall("k", "v"))
	if tx1.ID() == tx2.ID() || tx1.ID() == tx3.ID() || tx1.ID() == tx1b.ID() {
		t.Fatal("distinct txs share IDs")
	}
	// Same fields → same ID (ed25519 is deterministic).
	again := Transaction{From: tx1.From, Salt: tx1.Salt, ExpiresAt: tx1.ExpiresAt, Call: tx1.Call}
	if err := again.Sign(alice); err != nil {
		t.Fatal(err)
	}
	if again.ID() != tx1.ID() {
		t.Fatal("identical tx produced different IDs")
	}
}

func TestHeaderHashCoversAllFields(t *testing.T) {
	base := BlockHeader{Height: 1, Difficulty: 4, TimeUnixNano: 12345, Miner: "m", Nonce: 7}
	h := base.Hash()
	muts := []func(*BlockHeader){
		func(x *BlockHeader) { x.Height++ },
		func(x *BlockHeader) { x.PrevHash[3] ^= 1 },
		func(x *BlockHeader) { x.MerkleRoot[3] ^= 1 },
		func(x *BlockHeader) { x.TimeUnixNano++ },
		func(x *BlockHeader) { x.Difficulty++ },
		func(x *BlockHeader) { x.Nonce++ },
		func(x *BlockHeader) { x.Miner = "x" },
	}
	for i, m := range muts {
		hh := base
		m(&hh)
		if hh.Hash() == h {
			t.Errorf("mutation %d did not change header hash", i)
		}
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	tx, _ := NewTransaction(alice, 1, putCall("k", "v"))
	b := &Block{
		Header: BlockHeader{Height: 9, Difficulty: 4, Miner: "m", TimeUnixNano: 55, Nonce: 3,
			MerkleRoot: ComputeMerkleRoot([]Transaction{tx})},
		Txs: []Transaction{tx},
	}
	dec, err := DecodeBlock(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hash() != b.Hash() {
		t.Fatal("round trip changed block hash")
	}
	if len(dec.Txs) != 1 || dec.Txs[0].ID() != tx.ID() {
		t.Fatal("round trip changed txs")
	}
}

func TestTxEncodeDecodeRoundTrip(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	tx, _ := NewTransaction(alice, 7, putCall("a", "b"))
	dec, err := DecodeTx(EncodeTx(tx))
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID() != tx.ID() {
		t.Fatal("tx round trip changed ID")
	}
	if _, err := DecodeTx([]byte("{")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeBlock([]byte("nope")); err == nil {
		t.Fatal("garbage block decoded")
	}
}

func TestComputeMerkleRootEmpty(t *testing.T) {
	if !ComputeMerkleRoot(nil).IsZero() {
		t.Fatal("empty block root should be zero")
	}
}

func TestMerkleRootOrderSensitive(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	tx1, _ := NewTransaction(alice, 1, putCall("a", "1"))
	tx2, _ := NewTransaction(alice, 2, putCall("b", "2"))
	r1 := ComputeMerkleRoot([]Transaction{tx1, tx2})
	r2 := ComputeMerkleRoot([]Transaction{tx2, tx1})
	if r1 == r2 {
		t.Fatal("tx order should change merkle root")
	}
}

func TestExpectedAttempts(t *testing.T) {
	if got := ExpectedAttemptsForDifficulty(10); got != 1024 {
		t.Fatalf("got %v", got)
	}
}

func TestMeetsDifficultyProperty(t *testing.T) {
	// Every mined header at difficulty d must have ≥ d leading zero bits.
	if err := quick.Check(func(height uint64, miner string) bool {
		h := BlockHeader{Height: height % 1000, Difficulty: 6, Miner: miner}
		b := Block{Header: h}
		if !Mine(context.Background(), &b, height) {
			return false
		}
		hash := b.Header.Hash()
		return hash.LeadingZeroBits() >= 6
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
