package blockchain

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drams/internal/clock"
	"drams/internal/crypto"
	"drams/internal/metrics"
	"drams/internal/transport"
	"drams/internal/wire"
)

// Message kinds used on the wire.
const (
	kindTx       = "bc.tx"
	kindBlock    = "bc.block"
	kindGetRange = "bc.getrange"
	kindHead     = "bc.head"
)

// WireTx and WireBlock name the gossip frame kinds on the wire. They are
// exported for adversarial harnesses (internal/attack) that speak the
// gossip protocol directly — e.g. delivering equivocating sibling blocks
// to chosen peer subsets.
const (
	WireTx    = kindTx
	WireBlock = kindBlock
)

// ErrStopped is returned by node operations after Stop.
var ErrStopped = errors.New("blockchain: node stopped")

// NodeConfig configures one chain node.
type NodeConfig struct {
	// Name is the node's network address and miner label.
	Name string
	// Chain holds the consensus parameters (must match across the
	// federation).
	Chain Config
	// Network connects the node to its peers. Any transport backend works:
	// netsim.Network in-process, transport/tcp across processes.
	Network transport.Transport
	// Peers are the chain nodes gossip goes to, fixed for the node's
	// lifetime, so PEP/PDP/logger endpoints sharing the transport never see
	// bc.* frames. Empty means a lone node.
	Peers []string
	// Mine enables the mining loop.
	Mine bool
	// EmptyBlockInterval makes the miner produce empty blocks at this
	// cadence when the mempool is idle, so block hooks (e.g. the log-match
	// timeout check M3) keep advancing. Zero disables empty blocks.
	EmptyBlockInterval time.Duration
	// SyncDepth bounds how many ancestors are fetched when resolving an
	// orphan block (default 10 000).
	SyncDepth int
	// BlockLog, when set, is the path of the node's block log, which makes
	// the chain durable: NewNode opens it (creating it if missing), replays
	// its blocks with full validation and cuts a damaged tail, every
	// best-chain change afterwards is written to it, and Stop closes it.
	BlockLog string
	// SyncBatch caps how many blocks one bc.getrange catch-up call asks
	// for (default 128, server-clamped to 512). Catch-up cost is then
	// dominated by validation, not round-trips.
	SyncBatch int
}

// NodeStats are observability counters for experiments.
type NodeStats struct {
	BlocksMined     int64
	BlocksAccepted  int64
	BlocksRejected  int64
	TxsSubmitted    int64
	EventsDropped   int64 // best-chain blocks Follow skipped, more than E+1 behind the head
	MiningCancelled int64
	OrphansResolved int64
	// ImportDropped counts gossiped block frames refused because the import
	// queue was full. Such a block is fetched again as a missing ancestor
	// when one of its descendants arrives.
	ImportDropped int64
	// BlocksPersisted / PersistErrors count block writes to the block log
	// and failed best-chain syncs of it (zero without NodeConfig.BlockLog).
	BlocksPersisted int64
	PersistErrors   int64
	// BlocksReloaded is how many logged blocks were re-validated and
	// applied at construction; ReloadDropped counts logged records
	// discarded because the log's tail failed its checksum or validation
	// (torn write, tampering) — the discarded range is re-fetched from peers.
	BlocksReloaded int64
	ReloadDropped  int64
	// SyncCalls / SyncBlocks count the catch-up protocol: transport Calls
	// issued (bc.head and bc.getrange) and blocks that came back in range
	// responses and passed the linkage check, whether or not they were then
	// needed. A range call asks for the pull's height gap (at most
	// SyncBatch), so a rejoin shows SyncBlocks far above SyncCalls, while a
	// frame lost in steady gossip costs one call for about one block.
	SyncCalls  int64
	SyncBlocks int64
	// TxExpired counts pending transactions evicted because the best chain
	// grew past their expiry height before any block carried them: honest
	// loss, whose records M3 reports like any other missing ones.
	TxExpired int64
	// Reorgs counts head changes that undid best-chain blocks, and
	// ReorgBlocksUndone / ReorgBlocksApplied the blocks they undid and
	// applied: a reorg applies at most its depth + 1. ReorgsRefused counts
	// better branches left as side branches because they fork more than
	// E+1 blocks below the head.
	Reorgs             int64
	ReorgBlocksUndone  int64
	ReorgBlocksApplied int64
	ReorgsRefused      int64
	// MempoolLen / SeenCacheLen are point-in-time occupancy gauges of the
	// pending-transaction pool and the gossip-duplicate suppression cache.
	MempoolLen   int
	SeenCacheLen int
	// Verifier reports the shared signature-verification pipeline counters
	// (mempool admission + block validation).
	Verifier VerifierStats
}

// Node is one participant of the private chain: chain storage, mempool,
// gossip, and optionally a miner.
type Node struct {
	cfg   NodeConfig
	chain *Chain
	pool  *Mempool
	ep    transport.Endpoint
	clk   clock.Clock

	// ctx is the node's lifetime: Stop cancels it, which ends the loops
	// (stop is ctx.Done()) and aborts catch-up calls still in flight.
	ctx    context.Context
	cancel context.CancelFunc
	stop   <-chan struct{}
	wg     sync.WaitGroup
	newTx  chan struct{}
	seenTx *seenCache // recently handled tx-gossip payloads
	// imports feeds importLoop, the only goroutine that imports gossiped
	// blocks; pulling holds the one token a branch pull needs, so the loop
	// and SyncFrom never fetch the same gap twice.
	imports chan inboundBlock
	pulling chan struct{}

	// bestSeen is the highest chain height this node has heard claimed by
	// the network — peer head responses and gossiped block headers — used
	// by readiness probes to tell "caught up" from "still syncing". It is a
	// claim, not a validated height: a lying peer can inflate it, which
	// makes a node report not-ready, never unsafe.
	bestSeen atomic.Uint64

	mined      metrics.Counter
	accepted   metrics.Counter
	rejected   metrics.Counter
	submitted  metrics.Counter
	evDropped  metrics.Counter
	cancelled  metrics.Counter
	orphans    metrics.Counter
	imDropped  metrics.Counter
	reloaded   metrics.Counter
	reloadDrop metrics.Counter
	syncCalls  metrics.Counter
	syncBlocks metrics.Counter
	txExpired  metrics.Counter

	// gossipFilter / collectFilter are the Byzantine-behaviour hooks the
	// adversarial harness (internal/attack) installs to model a compromised
	// federation member: suppressing outbound gossip (block withholding)
	// and editing the mined transaction set (selective censorship). Honest
	// nodes never set them.
	gossipFilter  atomic.Pointer[gossipFilterBox]
	collectFilter atomic.Pointer[collectFilterBox]
}

// gossipFilterBox / collectFilterBox wrap the hook funcs so the atomic
// pointers always hold a concrete type.
type (
	gossipFilterBox struct {
		fn func(kind string, payload []byte) bool
	}
	collectFilterBox struct {
		fn func(txs []Transaction) []Transaction
	}
)

// SetGossipFilter installs an outbound gossip gate: every frame about to be
// fanned out to the chain peer set is offered to fn first, and suppressed
// when fn returns false. Inbound traffic is unaffected — a withholding node
// still learns the honest chain. Passing nil removes the filter. The hook
// exists for the adversarial test harness; a production node has no
// legitimate use for it.
func (n *Node) SetGossipFilter(fn func(kind string, payload []byte) bool) {
	if fn == nil {
		n.gossipFilter.Store(nil)
		return
	}
	n.gossipFilter.Store(&gossipFilterBox{fn: fn})
}

// SetCollectFilter installs a mining-time transaction editor: the mining
// loop passes each mempool collection through fn before building the block
// candidate, so a Byzantine producer can censor or delay specific senders'
// transactions. Dropped transactions stay in the mempool and are picked up
// again once the filter is removed (nil clears), unless they expire first.
// No transaction's validity depends on another's, so whatever subset fn
// keeps makes a block honest validators accept.
func (n *Node) SetCollectFilter(fn func(txs []Transaction) []Transaction) {
	if fn == nil {
		n.collectFilter.Store(nil)
		return
	}
	n.collectFilter.Store(&collectFilterBox{fn: fn})
}

// inboundBlock is a gossiped block frame queued for importLoop.
type inboundBlock struct {
	from    string
	payload []byte
}

// importQueue bounds the frames waiting for importLoop. Frames pile up only
// while the loop pulls a gap from a peer: a few round trips, during which
// each new block arrives once per chain peer. 512 covers several seconds of
// that at the block rates the benchmark reaches; past it the frame is
// dropped and counted, and the block comes back through the orphan path.
const importQueue = 512

// NewNode constructs (but does not start) a node.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("blockchain: node needs a name")
	}
	if cfg.Network == nil {
		return nil, errors.New("blockchain: node needs a network")
	}
	if cfg.SyncDepth <= 0 {
		cfg.SyncDepth = 10000
	}
	if cfg.SyncBatch <= 0 {
		cfg.SyncBatch = 128
	}
	chain := NewChain(cfg.Chain)
	var replay logReplay
	if cfg.BlockLog != "" {
		// Replay the logged best chain through full validation before any
		// network traffic. Followers take their cursor after NewNode, so
		// the replayed blocks are history to them.
		var err error
		if replay, err = openBlockLog(chain, cfg.BlockLog); err != nil {
			return nil, fmt.Errorf("blockchain: node %q: %w", cfg.Name, err)
		}
	}
	ep, err := cfg.Network.Register(cfg.Name)
	if err != nil {
		chain.closeLog()
		return nil, fmt.Errorf("blockchain: register node %q: %w", cfg.Name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:     cfg,
		chain:   chain,
		pool:    NewMempool(0),
		ep:      ep,
		clk:     chain.clk,
		ctx:     ctx,
		cancel:  cancel,
		stop:    ctx.Done(),
		newTx:   make(chan struct{}, 1),
		imports: make(chan inboundBlock, importQueue),
		pulling: make(chan struct{}, 1),
	}
	n.seenTx = newSeenCache(seenCacheSize, n.clk)
	n.reloaded.Add(int64(replay.loaded))
	n.reloadDrop.Add(int64(replay.dropped))
	// Gossip handlers are active from construction, so the import loop must
	// be too (Stop terminates it).
	n.wg.Add(1)
	go n.importLoop()
	ep.OnMessage(kindTx, n.handleTxGossip)
	ep.OnMessage(kindBlock, n.handleBlockGossip)
	ep.OnCall(kindGetRange, n.handleGetRange)
	ep.OnCall(kindHead, n.handleHead)
	return n, nil
}

// Chain exposes the node's chain view.
func (n *Node) Chain() *Chain { return n.chain }

// Name returns the node's network name.
func (n *Node) Name() string { return n.cfg.Name }

// Mempool exposes the pending-transaction pool.
//
//lint:ignore deadcode test accessor: the blockchain, core and root packages' tests inspect and drive the pool
func (n *Node) Mempool() *Mempool { return n.pool }

// noteSeenHeight folds a height claim from the network into the
// best-seen-height watermark.
func (n *Node) noteSeenHeight(h uint64) {
	for {
		cur := n.bestSeen.Load()
		if h <= cur || n.bestSeen.CompareAndSwap(cur, h) {
			return
		}
	}
}

// BestSeenHeight returns the highest chain height any peer has claimed to
// this node (via head responses or gossiped block headers). Zero until the
// first peer contact.
func (n *Node) BestSeenHeight() uint64 { return n.bestSeen.Load() }

// CaughtUp reports whether the node's own chain is within lag blocks of
// the best height the network has claimed — the readiness predicate: a
// node that has not yet heard from any peer counts as caught up (nothing
// to compare against), a node mid catch-up does not.
func (n *Node) CaughtUp(lag uint64) bool {
	return n.chain.Height()+lag >= n.bestSeen.Load()
}

// Stats snapshots the node counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		BlocksMined:        n.mined.Value(),
		BlocksAccepted:     n.accepted.Value(),
		BlocksRejected:     n.rejected.Value(),
		TxsSubmitted:       n.submitted.Value(),
		EventsDropped:      n.evDropped.Value(),
		MiningCancelled:    n.cancelled.Value(),
		OrphansResolved:    n.orphans.Value(),
		ImportDropped:      n.imDropped.Value(),
		BlocksPersisted:    n.chain.persisted.Value(),
		PersistErrors:      n.chain.persistErrs.Value(),
		BlocksReloaded:     n.reloaded.Value(),
		ReloadDropped:      n.reloadDrop.Value(),
		SyncCalls:          n.syncCalls.Value(),
		SyncBlocks:         n.syncBlocks.Value(),
		TxExpired:          n.txExpired.Value(),
		Reorgs:             n.chain.reorgs.Value(),
		ReorgBlocksUndone:  n.chain.reorgUndone.Value(),
		ReorgBlocksApplied: n.chain.reorgApplied.Value(),
		ReorgsRefused:      n.chain.reorgRefused.Value(),
		MempoolLen:         n.pool.Len(),
		SeenCacheLen:       n.seenTx.len(),
		Verifier:           n.chain.Verifier().Stats(),
	}
}

// Start launches the mining loop (if configured) and the periodic
// transaction rebroadcast. Handlers are active from construction.
func (n *Node) Start() {
	if n.cfg.Mine {
		n.wg.Add(1)
		go n.mineLoop()
	}
	n.wg.Add(1)
	go n.rebroadcastLoop()
}

// rebroadcastInterval is how often pending transactions are gossiped again,
// so that transactions stranded by a partition reach the block producers
// after healing.
const rebroadcastInterval = 250 * time.Millisecond

// rebroadcastLoop periodically re-gossips pending transactions; duplicate
// floods are suppressed by receivers' mempools (ErrKnownTx).
func (n *Node) rebroadcastLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case <-n.clk.After(rebroadcastInterval):
		}
		for _, raw := range n.pool.Frames(256) {
			n.gossip(kindTx, raw, "")
		}
	}
}

// Stop halts mining, ends every Follow and closes the block log.
func (n *Node) Stop() {
	n.cancel()
	n.wg.Wait()
	n.chain.closeLog()
}

// SubmitTx verifies a transaction built outside this node's Senders (a test
// rig, the attack harness's forgeries), adds it to the mempool and gossips it.
func (n *Node) SubmitTx(tx Transaction) error {
	return n.submit(tx, tx.ID(), false)
}

// submit admits a local client's transaction, whose ID the caller derived,
// and counts it. A Sender's own transaction (own) is vouched for on the
// registry check alone (TxVerifier.vouch); any other is verified.
func (n *Node) submit(tx Transaction, id crypto.Digest, own bool) error {
	select {
	case <-n.stop:
		return ErrStopped
	default:
	}
	var err error
	if own {
		err = n.chain.Verifier().vouch(&tx, id)
	} else {
		err = n.chain.Verifier().verify(&tx, id)
	}
	if err != nil {
		return err
	}
	if err := n.admit(tx, id, EncodeTx(tx), ""); err != nil {
		return err
	}
	n.submitted.Inc()
	return nil
}

// admit is the one way a checked transaction, whose ID is id, enters the
// node, from a local client or from gossip: pool it with raw, its wire
// form, relay raw to every chain peer but from, and only then let the miner
// collect it and wake the miner. Its callers check the signature first (submit,
// handleTxGossip). Links deliver in send order, so a block this node mines
// never reaches a peer ahead of a transaction it carries: the peer verifies
// the transaction at admission and the block's check of it is a memo hit,
// never a second verification racing the first.
func (n *Node) admit(tx Transaction, id crypto.Digest, raw []byte, from string) error {
	if err := n.pool.add(tx, id, raw, true); err != nil {
		return err
	}
	n.gossip(kindTx, raw, from)
	n.pool.release(id)
	select {
	case n.newTx <- struct{}{}:
	default:
	}
	return nil
}

// WaitForReceipt blocks until txID has at least `confirmations` best-chain
// confirmations, returning its receipt. Receipts answer for the top E+1
// blocks only (Chain.Receipt), so a wait for more than E+1 confirmations,
// or one that first looks when its transaction is already deeper than
// that, returns only when ctx ends.
func (n *Node) WaitForReceipt(ctx context.Context, txID crypto.Digest, confirmations uint64) (Receipt, error) {
	headCh, cancel := n.chain.SubscribeHead()
	defer cancel()
	for {
		rec, conf, err := n.chain.Receipt(txID)
		if err == nil && conf >= confirmations {
			return rec, nil
		}
		select {
		case <-headCh:
		case <-ctx.Done():
			return Receipt{}, fmt.Errorf("blockchain: wait for tx %s: %w", txID.Short(), ctx.Err())
		case <-n.stop:
			return Receipt{}, ErrStopped
		}
	}
}

// Follow calls fn with the events of the best-chain blocks above from
// (Chain.EventsAfter), then again each time the head moves, until stop
// closes or the node stops. fn runs on the calling goroutine, outside any
// chain lock, and only when the head has moved since its last call. A block
// is delivered again only if it rejoins the best chain above the follower's
// cursor, so delivery is at least once; the blocks a follower more than
// E+1 blocks behind skips are counted in NodeStats.EventsDropped. Take from
// with Chain.Cursor before reading whatever the follower starts from, so
// that nothing added in between is missed.
func (n *Node) Follow(stop <-chan struct{}, from Cursor, fn func([]BlockEvents)) {
	heads, cancel := n.chain.SubscribeHead()
	defer cancel()
	for cur := from; ; {
		blocks, next, missed := n.chain.EventsAfter(cur)
		n.evDropped.Add(int64(missed))
		if next != cur {
			fn(blocks)
			cur = next
		}
		select {
		case <-stop:
			return
		case <-n.stop:
			return
		case <-heads:
		}
	}
}

// gossip fans a frame out to the static Peers set, so it never sprays
// non-node endpoints (PEPs, PDP, loggers) that share the transport.
func (n *Node) gossip(kind string, payload []byte, except string) {
	if box := n.gossipFilter.Load(); box != nil && !box.fn(kind, payload) {
		return
	}
	for _, p := range n.cfg.Peers {
		if p == except || p == n.cfg.Name {
			continue
		}
		_ = n.ep.Send(p, kind, payload)
	}
}

// handleTxGossip admits a gossiped transaction. It runs on the link's
// delivery goroutine, which hands one link's frames over one at a time in
// send order, so a transaction relayed ahead of the block that carries it
// is verified and remembered before that block reaches importLoop.
func (n *Node) handleTxGossip(from string, payload []byte) {
	// Duplicate copies arrive constantly — the flood fans in from every
	// peer and the rebroadcast loops re-send pending transactions a few
	// times a second — so recently handled payloads are recognised by
	// digest before paying for a decode and an ID derivation. A payload is
	// handled once whatever the outcome: malformed stays malformed, and a
	// rejected or pooled transaction needs no second look.
	key := crypto.Sum(payload)
	if n.seenTx.has(key) {
		return
	}
	n.seenTx.add(key)
	tx, err := DecodeTx(payload)
	if err != nil {
		return
	}
	id := tx.ID()
	if n.pool.Has(id) || n.chain.Verifier().verify(&tx, id) != nil {
		return
	}
	_ = n.admit(tx, id, payload, from)
}

// handleBlockGossip queues a gossiped block frame for importLoop. It runs on
// the transport's delivery path, which hands one link's frames over one at
// a time, so it must not import here: resolving an orphan is a Call back to
// the sender.
func (n *Node) handleBlockGossip(from string, payload []byte) {
	select {
	case n.imports <- inboundBlock{from: from, payload: payload}:
	default:
		n.imDropped.Inc()
	}
}

// importLoop imports gossiped block frames one at a time, in arrival
// order. Being the only gossip importer is what keeps a block from racing
// its parent's AddBlock, and what parks the blocks gossiped during a gap
// pull until their ancestors are in.
func (n *Node) importLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case in := <-n.imports:
			n.importFrame(in)
		}
	}
}

// importFrame imports one gossiped block frame. The header is read and
// hashed first: each block reaches a follower once from its producer and
// once more through every other follower's relay, and a block the chain
// already holds is dropped there, its height noted, before its body is
// decoded. A frame too short for a header is refused.
func (n *Node) importFrame(in inboundBlock) {
	var h BlockHeader
	r := wire.NewReader(in.payload)
	if readBlockHeader(&r, &h) != nil {
		return
	}
	hash := h.Hash()
	if _, known := n.chain.stored(hash); known {
		n.noteSeenHeight(h.Height)
		return
	}
	b := &Block{Header: h}
	if err := readTxs(&r, b); err != nil {
		return
	}
	n.importBlock(framedBlock{b, hash, in.payload}, in.from)
}

// framedBlock is a decoded block with its header hash and frame, the
// encoding it arrived in, which the chain keeps and the relay sends.
type framedBlock struct {
	*Block
	hash  crypto.Digest
	frame []byte
}

// importBlock adds fb, pulling missing ancestors from `from` when needed,
// and relays what was inserted.
func (n *Node) importBlock(fb framedBlock, from string) {
	n.noteSeenHeight(fb.Header.Height)
	err := n.chain.addBlock(fb.Block, fb.hash, fb.frame)
	switch {
	case err == nil:
		n.afterAccept(from, fb.frame)
	case errors.Is(err, ErrKnownBlock):
		// Flood already saw it; stop.
	case errors.Is(err, ErrOrphanBlock) && from != "":
		n.resolveOrphans(fb, from)
	default:
		n.rejected.Inc()
	}
}

// afterAccept counts the blocks AddBlock just inserted (oldest first), returns
// to the pool what a reorganisation took off the best chain, prunes what is
// confirmed or expired, and relays the blocks to every chain peer but their
// sender. frames are the inserted blocks' encodings, the ones the chain
// keeps, relayed as they are: nothing is encoded here.
func (n *Node) afterAccept(from string, frames ...[]byte) {
	if len(frames) == 0 {
		return
	}
	n.accepted.Add(int64(len(frames)))
	for _, tx := range n.chain.TakeAbandoned() {
		_ = n.pool.Add(tx)
	}
	n.txExpired.Add(int64(n.pool.Prune(n.chain)))
	for _, frame := range frames {
		n.gossip(kindBlock, frame, from)
	}
}

// headInfo is a bc.head reply: the serving node's best-chain tip.
type headInfo struct {
	Hash   crypto.Digest
	Height uint64
}

// encode serialises the reply (codec.go's head reply layout).
func (hi headInfo) encode() []byte {
	buf := make([]byte, 0, 1+crypto.DigestSize+8)
	buf = append(append(buf, codecVersion), hi.Hash[:]...)
	return binary.BigEndian.AppendUint64(buf, hi.Height)
}

// decodeHeadInfo parses a bc.head reply.
func decodeHeadInfo(data []byte) (headInfo, error) {
	r := wire.NewReader(data)
	if err := readTag(&r, "head reply"); err != nil {
		return headInfo{}, err
	}
	var hi headInfo
	copy(hi.Hash[:], r.Bytes(crypto.DigestSize))
	hi.Height = r.U64()
	if err := r.End(); err != nil {
		return headInfo{}, fmt.Errorf("blockchain: decode head reply: %w", err)
	}
	return hi, nil
}

// handleHead serves the node's best-chain tip.
func (n *Node) handleHead(from string, payload []byte) ([]byte, error) {
	hash, height := n.chain.Head()
	return headInfo{Hash: hash, Height: height}.encode(), nil
}

// headAge reports how long ago the current head block was produced. A
// fresh chain (only genesis, whose timestamp is a fixed past instant)
// reports a large age, which correctly kick-starts empty-block production.
func (n *Node) headAge() time.Duration {
	hash, _ := n.chain.Head()
	s, ok := n.chain.stored(hash)
	if !ok {
		return 0
	}
	return n.clk.Now().Sub(s.header.Time())
}

// mineLoop is the node's proof-of-work production loop.
func (n *Node) mineLoop() {
	defer n.wg.Done()
	headCh, cancelSub := n.chain.SubscribeHead()
	defer cancelSub()

	for {
		select {
		case <-n.stop:
			return
		default:
		}
		// Drain a stale head signal from our own last accept.
		select {
		case <-headCh:
		default:
		}

		// Collect filters against the parent's own branch, so a block
		// imported meanwhile can only make this candidate a valid sibling,
		// and the head generation, read before the head, cancels its
		// attempt.
		gen := n.chain.headGen.Load()
		parentHash, parentHeight := n.chain.Head()
		txs := n.pool.Collect(maxTxPerBlock, n.chain, parentHash)
		if box := n.collectFilter.Load(); box != nil {
			txs = box.fn(txs)
		}
		if len(txs) == 0 {
			if n.cfg.EmptyBlockInterval == 0 {
				// Wait for work.
				select {
				case <-n.stop:
					return
				case <-n.newTx:
				case <-headCh:
				}
				continue
			}
			// Pace empty blocks against the age of the chain tip (not
			// our own last block) so multiple miners do not race to
			// produce redundant empty siblings.
			if age := n.headAge(); age < n.cfg.EmptyBlockInterval {
				select {
				case <-n.stop:
					return
				case <-n.newTx:
					continue
				case <-headCh:
					continue
				case <-n.clk.After(n.cfg.EmptyBlockInterval - age):
				}
				continue
			}
			// Fall through: mine an empty liveness block.
		}

		b := &Block{
			Header: BlockHeader{
				Height:       parentHeight + 1,
				PrevHash:     parentHash,
				MerkleRoot:   ComputeMerkleRoot(txs),
				TimeUnixNano: n.clk.Now().UnixNano(),
				Difficulty:   n.chain.cfg.Difficulty,
				Miner:        n.cfg.Name,
			},
			Txs: txs,
		}

		// The attempt ends when the head moves: an import or a reorg made
		// this candidate's parent stale, and mining on would only make a
		// sibling that loses.
		hash, mined := mine(&b.Header, minerSeed(n.cfg.Name, b.Header.Height), func() bool {
			select {
			case <-n.stop:
				return true
			default:
				return n.chain.headGen.Load() != gen
			}
		})
		if !mined {
			n.cancelled.Inc()
			continue
		}
		// The one encoding of the block is the frame the chain keeps and
		// the relay sends. The chain applies the block decoded from it, as
		// a follower does, so the receipts and events it keeps alias that
		// frame and not the frames the transactions were admitted in.
		frame := b.Encode()
		b, err := DecodeBlock(frame)
		if err != nil {
			panic(fmt.Sprintf("blockchain: mined block %d does not decode: %v", parentHeight+1, err))
		}
		if err := n.chain.addBlock(b, hash, frame); err != nil {
			// Lost a race with a concurrent import; retry from fresh head.
			n.cancelled.Inc()
			continue
		}
		n.mined.Inc()
		n.afterAccept("", frame)
	}
}
