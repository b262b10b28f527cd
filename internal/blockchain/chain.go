package blockchain

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/clock"
	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/merkle"
	"drams/internal/metrics"
)

// Config are the consensus parameters of a private DRAMS chain, fixed at
// genesis. Every node of one federation must be constructed with identical
// values.
type Config struct {
	// Difficulty is the PoW difficulty in leading zero bits that every
	// block carries.
	Difficulty uint8
	// Identities is the permissioned allowlist of transaction senders.
	Identities []crypto.PublicIdentity
	// Registry holds the deployed contracts.
	Registry *contract.Registry
	// Clock is the time source (defaults to the system clock).
	Clock clock.Clock
}

// Genesis constants, the same on every member: the most transactions a
// block may carry, and the genesis block's timestamp.
const (
	maxTxPerBlock   = 256
	genesisUnixNano = 1_700_000_000 * int64(time.Second)
)

func (c Config) withDefaults() Config {
	if c.Difficulty == 0 {
		c.Difficulty = 10
	}
	if c.Registry == nil {
		c.Registry = contract.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	return c
}

// Chain is one node's view of the blockchain. It is safe for concurrent use.
type Chain struct {
	cfg      Config
	engine   *contract.Engine
	ids      *IdentityRegistry
	verifier *TxVerifier
	clk      clock.Clock

	mu        sync.RWMutex
	blocks    map[crypto.Digest]*storedBlock
	genesis   crypto.Digest
	head      crypto.Digest
	bestChain []crypto.Digest // index = height
	state     *contract.State
	receipts  map[crypto.Digest]Receipt          // of the best chain's top E+1 blocks
	events    map[crypto.Digest][]contract.Event // of the same blocks, those that have any
	abandoned []Transaction                      // of blocks reorganised away, until TakeAbandoned
	// marks are the state journal's marks after the best chain's top E+2
	// blocks, the head's last: a block's undo list is the journal between
	// its parent's mark and its own, kept for the same top E+1 blocks as
	// the receipts.
	marks []uint64

	headSubs map[int]chan struct{}
	subSeq   int
	// headGen counts head changes, so a miner learns that its parent is no
	// longer the head with one atomic load (see Node.mineLoop).
	headGen atomic.Uint64

	log         *blockLog // nil: the chain lives in memory only
	persisted   metrics.Counter
	persistErrs metrics.Counter
	// Head changes that undid blocks, the blocks they undid and applied,
	// and branches refused because they fork more than E+1 blocks below
	// the head.
	reorgs       metrics.Counter
	reorgUndone  metrics.Counter
	reorgApplied metrics.Counter
	reorgRefused metrics.Counter
}

// NewChain constructs a chain containing only the genesis block.
func NewChain(cfg Config) *Chain {
	cfg = cfg.withDefaults()
	c := &Chain{
		cfg:      cfg,
		engine:   contract.NewEngine(cfg.Registry),
		ids:      NewIdentityRegistry(cfg.Identities...),
		clk:      cfg.Clock,
		blocks:   make(map[crypto.Digest]*storedBlock),
		state:    contract.NewState(),
		receipts: make(map[crypto.Digest]Receipt),
		events:   make(map[crypto.Digest][]contract.Event),
		headSubs: make(map[int]chan struct{}),
	}
	c.verifier = NewTxVerifier(c.ids, VerifierConfig{})
	gen := &Block{Header: BlockHeader{
		Height:       0,
		TimeUnixNano: genesisUnixNano,
		Difficulty:   cfg.Difficulty,
		Miner:        "genesis",
	}}
	gh := gen.Hash()
	c.blocks[gh] = &storedBlock{header: gen.Header, frame: gen.Encode()}
	c.genesis = gh
	c.head = gh
	c.bestChain = []crypto.Digest{gh}
	c.marks = []uint64{c.state.Mark()}
	return c
}

// storedBlock is what a chain keeps of a block: its header, its
// transactions' IDs (index-aligned) and its encoding. The decoded
// transactions are not kept: they served validation and the apply, and a
// rare reader decodes the frame again (block). The frame is the one the
// block arrived in, a gossip payload, a slice of a range response or of the
// block log read at start, and is shared read-only with whoever else holds
// it (codec.go). A stored block never changes, so a reader may keep the
// pointer past the chain lock.
type storedBlock struct {
	header BlockHeader
	ids    []crypto.Digest
	frame  []byte
}

// block decodes the stored frame. The decoded byte fields alias the frame,
// so the caller must not modify them.
func (s *storedBlock) block() *Block {
	b, err := DecodeBlock(s.frame)
	if err != nil {
		panic(fmt.Sprintf("blockchain: stored block %d does not decode: %v", s.header.Height, err))
	}
	return b
}

// stored returns what the chain keeps of the block hash names.
func (c *Chain) stored(hash crypto.Digest) (*storedBlock, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.blocks[hash]
	return s, ok
}

// Verifier exposes the transaction signature verifier. The node shares it
// between mempool admission and block validation so a transaction verified
// when admitted is not re-verified when its block arrives.
func (c *Chain) Verifier() *TxVerifier { return c.verifier }

// Config returns the consensus parameters.
func (c *Chain) Config() Config { return c.cfg }

// Genesis returns the genesis block hash.
//
//lint:ignore deadcode test accessor: the blockchain, core, pap and root packages' tests build blocks on genesis
func (c *Chain) Genesis() crypto.Digest {
	return c.genesis
}

// Head returns the best-chain tip hash and height.
func (c *Chain) Head() (crypto.Digest, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head, c.blocks[c.head].header.Height
}

// Height returns the best-chain height.
func (c *Chain) Height() uint64 {
	_, h := c.Head()
	return h
}

// BlockByHash returns a block by hash, decoded from its stored frame on
// every call. Its byte fields alias the chain's frame: the caller must not
// modify them.
func (c *Chain) BlockByHash(h crypto.Digest) (*Block, bool) {
	s, ok := c.stored(h)
	if !ok {
		return nil, false
	}
	return s.block(), true
}

// BlockByHeight returns the best-chain block at the given height, decoded
// as BlockByHash decodes it.
func (c *Chain) BlockByHeight(height uint64) (*Block, bool) {
	c.mu.RLock()
	if height >= uint64(len(c.bestChain)) {
		c.mu.RUnlock()
		return nil, false
	}
	s := c.blocks[c.bestChain[height]]
	c.mu.RUnlock()
	return s.block(), true
}

// StoredBytes returns the bytes of the block encodings the chain keeps,
// genesis and side branches included: with no decoded copy kept, this is
// what history costs the chain beyond its headers and transaction IDs.
//
//lint:ignore deadcode test accessor: the blockchain and root packages' tests pin what a member retains per block
func (c *Chain) StoredBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, s := range c.blocks {
		n += len(s.frame)
	}
	return n
}

// TakeAbandoned returns, once, the transactions of the blocks that
// reorganisations took off the best chain, for the node to pool again.
func (c *Chain) TakeAbandoned() []Transaction {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.abandoned
	c.abandoned = nil
	return out
}

// Receipt returns the execution receipt of a best-chain transaction along
// with its confirmation count (1 = in the head block). Receipts answer for
// the top E+1 blocks of the best chain, E being TxLifetime: a transaction
// mined lower returns ErrTxNotFound, as one never mined does.
func (c *Chain) Receipt(txID crypto.Digest) (Receipt, uint64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.receipts[txID]
	if !ok {
		return Receipt{}, 0, fmt.Errorf("blockchain: receipt %s: %w", txID.Short(), ErrTxNotFound)
	}
	headHeight := c.blocks[c.head].header.Height
	return r, headHeight - r.Height + 1, nil
}

// ReadState runs fn with read access to the named contract's best-chain
// state. fn must not write it or retain the StateDB. Bytes that Get returns
// are the stored ones: fn may keep them, but must not modify them.
func (c *Chain) ReadState(contractName string, fn func(st contract.StateDB)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(c.state.View(contractName))
}

// StateDigest returns a digest of the full contract state at head; replicas
// on the same best chain must agree.
func (c *Chain) StateDigest() crypto.Digest {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.state.Digest()
}

// SubscribeHead returns a channel signalled (coalesced) on every head
// change, plus a cancel function.
func (c *Chain) SubscribeHead() (<-chan struct{}, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subSeq++
	id := c.subSeq
	ch := make(chan struct{}, 1)
	c.headSubs[id] = ch
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.headSubs, id)
	}
}

// Cursor names the last best-chain block a follower has read. The zero
// Cursor stands before the first block.
type Cursor struct {
	Height uint64
	Hash   crypto.Digest
}

// Cursor returns the head's cursor: a follower that starts there reads the
// blocks that join the best chain afterwards.
func (c *Chain) Cursor() Cursor {
	hash, height := c.Head()
	return Cursor{Height: height, Hash: hash}
}

// BlockEvents are the contract events of one best-chain block: its
// transactions' in block order, then its block hooks'.
type BlockEvents struct {
	Height uint64
	Hash   crypto.Digest
	Events []contract.Event
}

// EventsAfter returns the best-chain blocks above cur, oldest first, and the
// cursor at the head they end at. A cursor whose block has left the best
// chain reads from the fork point, so no block of the abandoned branch is
// returned. Events are kept for the best chain's top E+1 blocks, as
// receipts are: the blocks below are skipped and counted in missed. The
// events are the chain's own; the reader must not modify them.
func (c *Chain) EventsAfter(cur Cursor) (blocks []BlockEvents, next Cursor, missed uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for cur.Height >= uint64(len(c.bestChain)) || c.bestChain[cur.Height] != cur.Hash {
		s, ok := c.blocks[cur.Hash]
		if !ok {
			cur = Cursor{Hash: c.genesis}
			break
		}
		cur = Cursor{Height: s.header.Height - 1, Hash: s.header.PrevHash}
	}
	head := uint64(len(c.bestChain) - 1)
	from := max(cur.Height+1, head-min(head, TxLifetime))
	missed = from - cur.Height - 1
	if from <= head {
		blocks = make([]BlockEvents, 0, head-from+1)
	}
	for h := from; h <= head; h++ {
		bh := c.bestChain[h]
		blocks = append(blocks, BlockEvents{Height: h, Hash: bh, Events: c.events[bh]})
	}
	return blocks, Cursor{Height: head, Hash: c.head}, missed
}

// AddBlock validates and inserts a block, switching the best chain if the
// new branch is longer. It returns ErrOrphanBlock when the parent is
// unknown (callers should sync ancestors) and ErrKnownBlock for duplicates.
// The block is encoded for the chain to keep once it passed validation:
// AddBlock is for callers that hold no frame of it (tests, experiments).
func (c *Chain) AddBlock(b *Block) error {
	return c.addBlock(b, b.Hash(), nil)
}

// addBlock is AddBlock for a block whose header hash the caller computed
// and whose encoding frame it holds, which the chain keeps as it is: the
// import path hashed the header to drop a known block before decoding its
// body, and the miner holds the hash it found and the encoding it relays.
// A nil frame has b encoded after validation. The header is hashed once
// per import; the proof of work is read off that hash.
func (c *Chain) addBlock(b *Block, hash crypto.Digest, frame []byte) error {
	// Cheap structural gates run before any signature work, so a gossip
	// flood of duplicate, orphan or forged blocks cannot buy expensive
	// ed25519 batches for the price of a message. addBlockLocked repeats
	// the ones that depend on chain state authoritatively under the lock.
	c.mu.RLock()
	_, known := c.blocks[hash]
	parent, haveParent := c.blocks[b.Header.PrevHash]
	c.mu.RUnlock()
	if known {
		return ErrKnownBlock
	}
	if !haveParent {
		return fmt.Errorf("%w: parent %s of block %s", ErrOrphanBlock, b.Header.PrevHash.Short(), hash.Short())
	}
	if b.Header.Height != parent.header.Height+1 {
		return fmt.Errorf("%w: height %d after parent %d", ErrBadHeight, b.Header.Height, parent.header.Height)
	}
	if b.Header.Difficulty != c.cfg.Difficulty {
		return fmt.Errorf("%w: have %d, want %d at height %d", ErrBadDifficulty, b.Header.Difficulty, c.cfg.Difficulty, b.Header.Height)
	}
	if !meets(hash, b.Header.Difficulty) {
		return fmt.Errorf("%w: block %s at difficulty %d", ErrBadPoW, hash.Short(), b.Header.Difficulty)
	}
	if len(b.Txs) > maxTxPerBlock {
		return fmt.Errorf("blockchain: block %s has %d txs, max %d", hash.Short(), len(b.Txs), maxTxPerBlock)
	}
	// The transaction IDs are derived here, once per import, and handed to
	// everything below that needs them: the Merkle check, the verifier's
	// cache lookups, the replay rule, receipts and contract call contexts.
	// The chain keeps them with the block for later side-branch checks and
	// reorganisation replays.
	ids := txIDs(b.Txs)
	if merkle.RootOfHashes(ids) != b.Header.MerkleRoot {
		return fmt.Errorf("%w: block %s", ErrBadMerkleRoot, hash.Short())
	}

	// Verify transaction signatures outside the chain lock: verification
	// depends only on the identity registry, and the verifier's memo skips
	// transactions already verified at mempool admission.
	if err := c.verifier.verifyAll(b.Txs, ids); err != nil {
		return fmt.Errorf("blockchain: block %s %w", hash.Short(), err)
	}
	if frame == nil {
		frame = b.Encode()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addBlockLocked(b, &storedBlock{header: b.Header, ids: ids, frame: frame}, hash)
}

// addBlockLocked repeats AddBlock's chain-dependent checks authoritatively,
// applies the replay rule against b's branch and stores s, what the chain
// keeps of b, signalling the head subscribers when b becomes the head.
// s.ids are b's transaction IDs, which AddBlock has already checked against
// the header's Merkle root; neither changes, so that check is not repeated
// here.
func (c *Chain) addBlockLocked(b *Block, s *storedBlock, hash crypto.Digest) error {
	if _, ok := c.blocks[hash]; ok {
		return ErrKnownBlock
	}
	parent, ok := c.blocks[b.Header.PrevHash]
	if !ok {
		return fmt.Errorf("%w: parent %s of block %s", ErrOrphanBlock, b.Header.PrevHash.Short(), hash.Short())
	}
	if b.Header.Height != parent.header.Height+1 {
		return fmt.Errorf("%w: height %d after parent %d", ErrBadHeight, b.Header.Height, parent.header.Height)
	}
	// Difficulty, PoW and size depend on b alone and were checked in
	// AddBlock, as were the transaction signatures, outside the lock.
	if err := c.checkReplayLocked(b, s.ids); err != nil {
		return fmt.Errorf("blockchain: block %s: %w", hash.Short(), err)
	}

	c.blocks[hash] = s
	if c.betterThanHeadLocked(b, hash) && c.reorgToLocked(hash, b) {
		c.notifyHeadLocked()
	}
	return nil
}

// betterThanHeadLocked implements fork choice. Every block carries the one
// genesis difficulty, so the branch with the most work is the longest: the
// greater height wins, and ties break toward the lexicographically smaller
// hash for determinism.
func (c *Chain) betterThanHeadLocked(b *Block, hash crypto.Digest) bool {
	if h, head := b.Header.Height, c.blocks[c.head].header.Height; h != head {
		return h > head
	}
	return bytes.Compare(hash[:], c.head[:]) < 0
}

// TxLifetime is E: a block at height h carries only transactions with
// h <= ExpiresAt <= h+E, and a Sender stamps ExpiresAt = its head + E. An
// honest transaction delayed longer is lost and counted as
// NodeStats.TxExpired; docs/ARCHITECTURE.md measures the delays E outlasts.
const TxLifetime = 1024

// validAt reports whether a block at height may carry tx.
func validAt(tx *Transaction, height uint64) bool {
	return height <= tx.ExpiresAt && tx.ExpiresAt <= height+TxLifetime
}

// checkReplayLocked applies the replay rule to b, whose transaction IDs are
// ids: every transaction is inside its validity window at b's height, and
// its ID appears nowhere else in b and in no earlier block of b's branch.
func (c *Chain) checkReplayLocked(b *Block, ids []crypto.Digest) error {
	seen := make(map[crypto.Digest]bool, len(ids))
	for i := range b.Txs {
		if tx := &b.Txs[i]; !validAt(tx, b.Header.Height) {
			return fmt.Errorf("%w: tx %s expires at %d, block height %d", ErrTxExpired, ids[i].Short(), tx.ExpiresAt, b.Header.Height)
		}
		if seen[ids[i]] {
			return fmt.Errorf("%w: tx %s twice in one block", ErrKnownTx, ids[i].Short())
		}
		seen[ids[i]] = true
	}
	for i, onBranch := range c.carriedLocked(b.Header.PrevHash, ids, nil) {
		if onBranch {
			return fmt.Errorf("%w: tx %s already on the branch", ErrKnownTx, ids[i].Short())
		}
	}
	return nil
}

// carried reports in out, index-aligned with ids, which transactions the
// branch ending at tip carries, and returns out and tip's height. out is
// the caller's storage, reused when its capacity suffices.
func (c *Chain) carried(tip crypto.Digest, ids []crypto.Digest, out []bool) ([]bool, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.carriedLocked(tip, ids, out), c.blocks[tip].header.Height
}

// carriedLocked is carried for transactions valid in a child of tip. A
// transaction valid in a child at height c cannot have been mined below
// c-E, so no walk goes lower. A side branch is walked back to where it joins
// the best chain. On the best chain the receipts index answers for its top
// E+1 blocks, and the kept IDs of the best-chain blocks below them, down to
// c-E, for the rest.
func (c *Chain) carriedLocked(tip crypto.Digest, ids []crypto.Digest, out []bool) []bool {
	out = slices.Grow(out[:0], len(ids))[:len(ids)]
	clear(out)
	var index map[crypto.Digest]int // ids' positions, made by the first block walked
	mark := func(block crypto.Digest) {
		if index == nil {
			index = make(map[crypto.Digest]int, len(ids))
			for i, id := range ids {
				index[id] = i
			}
		}
		for _, id := range c.blocks[block].ids {
			if i, ok := index[id]; ok {
				out[i] = true
			}
		}
	}
	b := c.blocks[tip]
	child := b.header.Height + 1
	lowest := child - min(child, TxLifetime)
	for ; ; b = c.blocks[tip] {
		if h := b.header.Height; h < uint64(len(c.bestChain)) && c.bestChain[h] == tip {
			break
		}
		if b.header.Height < lowest {
			return out
		}
		mark(tip)
		tip = b.header.PrevHash
	}
	join := b.header.Height
	for i, id := range ids {
		r, ok := c.receipts[id]
		out[i] = out[i] || ok && r.Height <= join
	}
	head := uint64(len(c.bestChain) - 1)
	for h := lowest; h < head-min(head, TxLifetime) && h <= join; h++ {
		mark(c.bestChain[h]) // below the receipts
	}
	return out
}

// reorgToLocked makes newHead, whose block nb the caller holds decoded,
// the head, and reports whether it did; it is the one way the head
// changes. It walks newHead's branch back to its fork point with the best
// chain, undoes the best chain's blocks above the fork point newest first,
// then applies the branch's blocks oldest first, decoding all but nb from
// their frames. A block that extends the head has nothing to undo. A fork
// point more than E+1 blocks below the head lies below the undo lists,
// receipts and events the chain keeps, so that branch is refused and
// counted, and stays a side branch; the walk stops after E+2 steps.
func (c *Chain) reorgToLocked(newHead crypto.Digest, nb *Block) bool {
	var buf [2]crypto.Digest
	branch := buf[:0] // newest first
	tip := newHead
	for {
		s := c.blocks[tip]
		if h := s.header.Height; h < uint64(len(c.bestChain)) && c.bestChain[h] == tip {
			break
		}
		if len(branch) == TxLifetime+2 {
			c.reorgRefused.Inc()
			return false
		}
		branch = append(branch, tip)
		tip = s.header.PrevHash
	}
	fork, head := c.blocks[tip].header.Height, uint64(len(c.bestChain)-1)
	if head-fork > TxLifetime+1 {
		c.reorgRefused.Inc()
		return false
	}
	at := len(c.abandoned)
	for range head - fork {
		c.undoHeadLocked(at)
	}
	for i := len(branch) - 1; i >= 0; i-- {
		b := nb
		if i > 0 {
			b = c.blocks[branch[i]].block()
		}
		c.applyBlockLocked(branch[i], b)
	}
	if head > fork {
		c.reorgs.Inc()
		c.reorgUndone.Add(int64(head - fork))
		c.reorgApplied.Add(int64(len(branch)))
	}
	c.syncLogLocked()
	return true
}

// undoHeadLocked takes the head block off the best chain: it reverts the
// block's state writes, drops its receipts and events, and puts its
// transactions on abandoned at index at, so that a reorganisation leaves
// the abandoned blocks' transactions oldest block first.
func (c *Chain) undoHeadLocked(at int) {
	s := c.blocks[c.head]
	c.marks = c.marks[:len(c.marks)-1]
	c.state.Revert(c.marks[len(c.marks)-1])
	for _, id := range s.ids {
		delete(c.receipts, id)
	}
	delete(c.events, c.head)
	c.abandoned = slices.Insert(c.abandoned, at, s.block().Txs...)
	c.bestChain = c.bestChain[:len(c.bestChain)-1]
	c.head = c.bestChain[len(c.bestChain)-1]
}

// applyBlockLocked executes b, stored under hash, a child of the head, and
// makes it the head: its transactions and then its block hooks run against
// the state, the receipts are recorded under the block's transaction IDs,
// and the events, the transactions' in block order followed by the hooks',
// under hash. The block E+1 below it leaves the window: its receipts, its
// events and its undo list go. The replay rule was checked beforehand.
// Transactions run one after another in block order; this is the only
// apply path.
func (c *Chain) applyBlockLocked(hash crypto.Digest, b *Block) {
	ids := c.blocks[hash].ids
	// The block's events are its transactions' and then its hooks', kept in
	// one slice of exactly their number, each transaction's counted here;
	// a receipt keeps none.
	var txEvents [8][]contract.Event
	perTx := txEvents[:0]
	total := 0
	for i := range b.Txs {
		tx := &b.Txs[i]
		ctx := contract.CallCtx{
			Height:    b.Header.Height,
			BlockTime: b.Header.Time(),
			TxID:      ids[i],
			Caller:    tx.From,
		}
		evs, err := c.engine.Execute(ctx, c.state, tx.Call)
		rec := Receipt{TxID: ids[i], Height: b.Header.Height, OK: err == nil}
		if err != nil {
			rec.Err = err.Error()
		}
		c.receipts[ids[i]] = rec
		perTx = append(perTx, evs)
		total += len(evs)
	}
	hooks := c.engine.OnBlock(b.Header.Height, b.Header.Time(), c.state)
	if total+len(hooks) > 0 {
		events := make([]contract.Event, 0, total+len(hooks))
		for _, evs := range perTx {
			events = append(events, evs...)
		}
		c.events[hash] = append(events, hooks...)
	}

	c.head = hash
	c.bestChain = append(c.bestChain, hash)
	c.marks = append(c.marks, c.state.Mark())
	if len(c.marks) > TxLifetime+2 {
		// The block E+1 below b leaves the window: the oldest mark goes,
		// and the journal up to the mark after that block with it.
		c.marks = c.marks[1:]
		gone := c.bestChain[b.Header.Height-TxLifetime-1]
		for _, id := range c.blocks[gone].ids {
			delete(c.receipts, id)
		}
		delete(c.events, gone)
		c.state.Forget(c.marks[0])
	}
}

func (c *Chain) notifyHeadLocked() {
	c.headGen.Add(1)
	for _, ch := range c.headSubs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// BestChainHashes returns the hashes of the best chain from genesis to head.
func (c *Chain) BestChainHashes() []crypto.Digest {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]crypto.Digest, len(c.bestChain))
	copy(out, c.bestChain)
	return out
}
