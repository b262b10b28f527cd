// Package blockchain implements the private proof-of-work smart-contract
// blockchain at the heart of DRAMS (paper §II). It provides:
//
//   - signed transactions carrying contract calls and a permissioned
//     identity allowlist (outsiders cannot forge log entries — attack A8).
//     Replay protection is by expiry, not by order: a transaction carries
//     the last height it may be mined at and a random salt, and a branch
//     carries one ID at most once, so nothing waits for a predecessor;
//   - blocks mined at one leading-zero-bits difficulty, Config.Difficulty,
//     fixed at genesis. §III's "private blockchain where all PoW parameters
//     can be dynamically tuned" is the federation's choice of that value;
//   - a multi-node network: transaction/block gossip to a static peer set
//     over any transport.Transport backend (netsim in-process, TCP across),
//     orphan resolution, longest-chain fork choice with deterministic state
//     replay on reorganisation;
//   - contract execution at block application. The chain keeps each
//     best-chain block's events beside its receipts, and off-chain readers
//     (the analyser, the monitor, the policy watcher) follow the head and
//     read them from there (Node.Follow).
package blockchain

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/merkle"
	"drams/internal/wire"
)

// Validation errors.
var (
	ErrUnknownIdentity = errors.New("blockchain: transaction from unknown identity")
	ErrBadSignature    = errors.New("blockchain: invalid transaction signature")
	ErrBadPoW          = errors.New("blockchain: block hash does not meet difficulty")
	ErrBadMerkleRoot   = errors.New("blockchain: merkle root does not match transactions")
	ErrOrphanBlock     = errors.New("blockchain: parent block unknown")
	ErrKnownBlock      = errors.New("blockchain: block already known")
	ErrBadHeight       = errors.New("blockchain: block height does not follow parent")
	ErrTxExpired       = errors.New("blockchain: transaction outside its validity window")
	ErrKnownTx         = errors.New("blockchain: transaction already known")
	ErrBadDifficulty   = errors.New("blockchain: block difficulty is not the chain's")
	ErrTxNotFound      = errors.New("blockchain: transaction not found")
)

// Transaction is a signed contract call. A block at height h may carry it
// iff h <= ExpiresAt <= h+TxLifetime and no earlier block of the branch
// carries its ID (see Chain.AddBlock). Salt is random, so the same call
// signed twice is two transactions.
type Transaction struct {
	From      string        `json:"from"`
	Salt      [8]byte       `json:"salt"`
	ExpiresAt uint64        `json:"expiresAt"`
	Call      contract.Call `json:"call"`
	PubKey    []byte        `json:"pubKey"`
	Signature []byte        `json:"signature,omitempty"`
}

// signingBytes is what the signature covers: the digest of the length-framed
// fields (From, Salt, ExpiresAt, Contract, Method, Args, PubKey). Each field
// is hashed as raw bytes behind its length, so the framing is injective
// whatever the fields hold; the chain never parses Args.
func (tx *Transaction) signingBytes() crypto.Digest {
	var expires [8]byte
	binary.BigEndian.PutUint64(expires[:], tx.ExpiresAt)
	return crypto.SumAll([]byte(tx.From), tx.Salt[:], expires[:], []byte(tx.Call.Contract), []byte(tx.Call.Method), tx.Call.Args, tx.PubKey)
}

// ID returns the transaction digest (covers the signature, so two distinct
// signatures over the same payload are distinct transactions; only the
// key's holder can make a second one, ed25519 signatures not being
// malleable, and it could as well sign a fresh salt). Every call re-derives
// it from the fields (two framed hashes, no encoding step): the value is
// deliberately not cached on the struct, because the verifier's memo is
// keyed by it and a stale ID on a mutated transaction would skip a
// signature check. Code that needs the IDs of a whole block more than once
// derives them once with txIDs and passes the slice down (see AddBlock).
func (tx *Transaction) ID() crypto.Digest {
	if hook := testOnTxID.Load(); hook != nil {
		(*hook)()
	}
	signed := tx.signingBytes()
	return crypto.SumAll(signed[:], tx.Signature)
}

// testOnTxID, when set (tests only), runs on every ID derivation.
var testOnTxID atomic.Pointer[func()]

// txIDs derives the ID of every transaction, index-aligned.
func txIDs(txs []Transaction) []crypto.Digest {
	ids := make([]crypto.Digest, len(txs))
	for i := range txs {
		ids[i] = txs[i].ID()
	}
	return ids
}

// Sign populates PubKey and Signature using id. From must equal id's name.
func (tx *Transaction) Sign(id *crypto.Identity) error {
	if tx.From != id.Name() {
		return fmt.Errorf("blockchain: sign: From %q does not match identity %q", tx.From, id.Name())
	}
	pub := id.Public()
	tx.PubKey = append([]byte(nil), pub.Key...)
	signed := tx.signingBytes()
	tx.Signature = id.Sign(signed[:])
	return nil
}

// NewTransaction builds and signs a transaction for a chain whose head is at
// height head: it expires TxLifetime blocks later and carries a fresh salt.
func NewTransaction(id *crypto.Identity, head uint64, call contract.Call) (Transaction, error) {
	tx := Transaction{From: id.Name(), ExpiresAt: head + TxLifetime, Call: call}
	if _, err := crand.Read(tx.Salt[:]); err != nil {
		return Transaction{}, fmt.Errorf("blockchain: salt: %w", err)
	}
	if err := tx.Sign(id); err != nil {
		return Transaction{}, err
	}
	return tx, nil
}

// IdentityRegistry is the permissioned membership of the private chain: the
// set of component identities allowed to submit transactions. It is fixed
// at genesis: the map is never written after construction, so reads take no
// lock.
type IdentityRegistry struct {
	byName map[string]crypto.PublicIdentity
}

// NewIdentityRegistry builds a registry from the genesis allowlist.
func NewIdentityRegistry(ids ...crypto.PublicIdentity) *IdentityRegistry {
	r := &IdentityRegistry{byName: make(map[string]crypto.PublicIdentity, len(ids))}
	for _, id := range ids {
		r.byName[id.Name] = id
	}
	return r
}

// Len returns the number of registered identities.
func (r *IdentityRegistry) Len() int { return len(r.byName) }

// signer performs the cheap registry checks — the sender is a member, and
// the transaction carries its registered key — and returns the sender's
// registered identity.
func (r *IdentityRegistry) signer(tx *Transaction) (crypto.PublicIdentity, error) {
	reg, ok := r.byName[tx.From]
	if !ok {
		return crypto.PublicIdentity{}, fmt.Errorf("%w: %q", ErrUnknownIdentity, tx.From)
	}
	if !crypto.ConstantTimeEqual(reg.Key, tx.PubKey) {
		return crypto.PublicIdentity{}, fmt.Errorf("%w: public key does not match registered identity %q", ErrBadSignature, tx.From)
	}
	return reg, nil
}

// checkSignature runs the ed25519 check of tx against its sender's
// registered identity.
func checkSignature(reg crypto.PublicIdentity, tx *Transaction) error {
	signed := tx.signingBytes()
	if !reg.Verify(signed[:], tx.Signature) {
		return fmt.Errorf("%w: from %q", ErrBadSignature, tx.From)
	}
	return nil
}

// BlockHeader is the mined portion of a block.
type BlockHeader struct {
	Height       uint64        `json:"height"`
	PrevHash     crypto.Digest `json:"prevHash"`
	MerkleRoot   crypto.Digest `json:"merkleRoot"`
	TimeUnixNano int64         `json:"time"`
	Difficulty   uint8         `json:"difficulty"`
	Nonce        uint64        `json:"nonce"`
	Miner        string        `json:"miner"`
}

// Time returns the header timestamp as a time.Time.
func (h *BlockHeader) Time() time.Time { return time.Unix(0, h.TimeUnixNano) }

// Hash computes the header digest using a fixed-width binary encoding,
// built on the stack.
func (h *BlockHeader) Hash() crypto.Digest {
	var buf [headerHashInline]byte
	return crypto.Sum(h.appendHashInput(buf[:0]))
}

// headerHashInline holds the hash input of a header whose miner name is up
// to 64 bytes; a longer name moves it to the heap.
const headerHashInline = headerNonceAt + 8 + 64

// headerNonceAt is the offset of the nonce in a header's hash input, after
// the height, the two digests, the time and the difficulty.
const headerNonceAt = 8 + 2*crypto.DigestSize + 8 + 1

// appendHashInput appends the bytes Hash digests: the fixed-width fields,
// then the miner name.
func (h *BlockHeader) appendHashInput(buf []byte) []byte {
	return append(h.appendFixed(buf), h.Miner...)
}

// appendFixed appends the header's fixed-width fields, in the order the hash
// input and the block encoding both hold them: height, previous hash, Merkle
// root, time, difficulty and nonce.
func (h *BlockHeader) appendFixed(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, h.Height)
	buf = append(buf, h.PrevHash[:]...)
	buf = append(buf, h.MerkleRoot[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.TimeUnixNano))
	buf = append(buf, h.Difficulty)
	return binary.BigEndian.AppendUint64(buf, h.Nonce)
}

// meets reports whether hash has at least difficulty leading zero bits.
func meets(hash crypto.Digest, difficulty uint8) bool {
	return hash.LeadingZeroBits() >= int(difficulty)
}

// Block is a header plus its transactions.
type Block struct {
	Header BlockHeader   `json:"header"`
	Txs    []Transaction `json:"txs"`
}

// Hash returns the block's identity (the header hash).
func (b *Block) Hash() crypto.Digest { return b.Header.Hash() }

// ComputeMerkleRoot derives the Merkle root over the block's transaction
// IDs; the zero digest for an empty block.
func ComputeMerkleRoot(txs []Transaction) crypto.Digest {
	return merkle.RootOfHashes(txIDs(txs))
}

// Encode serialises the block in the binary wire format (see codec.go) for
// gossip and persistence. The output is exactly sized: one allocation.
func (b *Block) Encode() []byte {
	out, _ := AppendBlock(make([]byte, 0, blockEncodedLen(b)), b)
	return out
}

// DecodeBlock parses a gossiped or persisted block. The leading format tag
// must be one this build knows (see codec.go).
func DecodeBlock(data []byte) (*Block, error) {
	b := new(Block)
	r := wire.NewReader(data)
	if err := readBlockHeader(&r, &b.Header); err != nil {
		return nil, err
	}
	if err := readTxs(&r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// EncodeTx serialises a transaction in the binary wire format for gossip.
func EncodeTx(tx Transaction) []byte {
	return AppendTx(make([]byte, 0, 1+txEncodedLen(&tx)), &tx)
}

// DecodeTx parses a gossiped transaction.
func DecodeTx(data []byte) (Transaction, error) {
	r := wire.NewReader(data)
	if err := readTag(&r, "tx"); err != nil {
		return Transaction{}, err
	}
	var tx Transaction
	readTxBody(&r, &tx)
	if err := r.End(); err != nil {
		return Transaction{}, fmt.Errorf("blockchain: decode tx: %w", err)
	}
	return tx, nil
}

// Receipt records the outcome of executing a transaction on the best chain.
// Its events are the block's (Chain.EventsAfter), kept once there.
type Receipt struct {
	TxID   crypto.Digest `json:"txId"`
	Height uint64        `json:"height"`
	OK     bool          `json:"ok"`
	Err    string        `json:"err,omitempty"`
}
