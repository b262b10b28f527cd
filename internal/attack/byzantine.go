package attack

import (
	"context"
	"fmt"
	"time"

	"drams/internal/blockchain"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/transport"
)

// ByzantineNode wraps a blockchain.Node with the chain-level misbehaviours
// of a compromised federation member (the gap §I's threat model leaves
// beyond log tampering): block withholding (mine but suppress broadcast),
// selective transaction censorship (keep a victim tenant's probe-log
// records out of mined blocks) and delayed anchoring (hold matching records
// in the mempool past the M3 window, then release). The wrapper only drives
// the node's adversary hooks — the node itself keeps validating and
// importing honest traffic, exactly like a real subverted member would.
type ByzantineNode struct {
	node *blockchain.Node
}

// Byzantine wraps node for adversarial control.
func Byzantine(node *blockchain.Node) *ByzantineNode {
	return &ByzantineNode{node: node}
}

// Node returns the wrapped chain node.
func (b *ByzantineNode) Node() *blockchain.Node { return b.node }

// WithholdGossip makes the member mine and validate normally but suppress
// every outbound bc.tx / bc.block frame: its own mined blocks and every
// transaction submitted through it (a colocated tenant's probe logs) stay
// trapped on the member. Detection relies on the honest side of the
// federation arming the M3 deadline from the records it does see.
func (b *ByzantineNode) WithholdGossip() {
	b.node.SetGossipFilter(func(kind string, payload []byte) bool {
		return kind != blockchain.WireTx && kind != blockchain.WireBlock
	})
}

// ReleaseGossip ends the withholding phase. Trapped transactions reach the
// honest chain through the node's periodic rebroadcast; the member's
// private blocks lose the cumulative-work race and are simply abandoned
// when it reorganises onto the heavier honest chain.
func (b *ByzantineNode) ReleaseGossip() { b.node.SetGossipFilter(nil) }

// CensorSenders installs a mining filter dropping every pending transaction
// from the given senders — e.g. "li@tenant-2" to keep a victim tenant's
// probe logs off-chain. Only effective when this node produces blocks
// (designated producer, or a mining member under MineAll); honest miners
// would include the records anyway.
func (b *ByzantineNode) CensorSenders(senders ...string) {
	block := make(map[string]bool, len(senders))
	for _, s := range senders {
		block[s] = true
	}
	b.node.SetCollectFilter(dropMatching(func(tx blockchain.Transaction) bool {
		return block[tx.From]
	}))
}

// DelayRecords installs a mining filter holding back every log record
// matching pred. Held transactions stay pending and anchor as soon as
// LiftCensorship runs — the "delay probe-log anchoring past the monitor's
// grace window" attack, as opposed to CensorSenders' permanent drop.
func (b *ByzantineNode) DelayRecords(pred func(core.LogRecord) bool) {
	b.node.SetCollectFilter(dropMatching(func(tx blockchain.Transaction) bool {
		for _, rec := range decodeLogRecords(tx) {
			if pred(rec) {
				return true
			}
		}
		return false
	}))
}

// LiftCensorship removes the mining filter; everything held in the mempool
// is eligible for the next block.
func (b *ByzantineNode) LiftCensorship() { b.node.SetCollectFilter(nil) }

// dropMatching builds a collect filter skipping every transaction matching
// pred. No transaction's validity depends on another's, so the Byzantine
// block stays acceptable to honest validators (a stealthy censor).
func dropMatching(pred func(blockchain.Transaction) bool) func([]blockchain.Transaction) []blockchain.Transaction {
	return func(txs []blockchain.Transaction) []blockchain.Transaction {
		out := make([]blockchain.Transaction, 0, len(txs))
		for _, tx := range txs {
			if !pred(tx) {
				out = append(out, tx)
			}
		}
		return out
	}
}

// decodeLogRecords extracts the log records a transaction carries, if any:
// the whole window of a Merkle-anchored batch. A censor must judge the full
// batch — it cannot drop individual records from an anchored window without
// invalidating the root, so matching any record taints the transaction.
func decodeLogRecords(tx blockchain.Transaction) []core.LogRecord {
	if tx.Call.Contract != core.ContractName || tx.Call.Method != core.MethodLogBatch {
		return nil
	}
	lb, err := core.DecodeLogBatch(tx.Call.Args)
	if err != nil {
		return nil
	}
	return lb.Records
}

// ForgeConflictingRecord signs a pep.request record that conflicts with the
// honest record already stored for reqID: same (reqID, kind) key, different
// request digest. The log-match contract keys records by (reqID, kind)
// regardless of sender, so any allowlisted identity can carry the conflict;
// a Byzantine member naturally uses its own hosted tenant's LI identity.
// Executing the transaction raises AlertEquivocation on every honest
// replica.
func ForgeConflictingRecord(view *blockchain.Chain, id *crypto.Identity, victimTenant, reqID string) (blockchain.Transaction, error) {
	rec := core.LogRecord{
		Kind:              core.KindPEPRequest,
		ReqID:             reqID,
		Tenant:            victimTenant,
		Agent:             "byzantine@" + id.Name(),
		ReqDigest:         crypto.Sum([]byte("equivocating view of " + reqID)),
		TimestampUnixNano: time.Now().UnixNano(),
	}
	call, err := core.LogCall(rec)
	if err != nil {
		return blockchain.Transaction{}, fmt.Errorf("attack: forge conflicting record: %w", err)
	}
	tx, err := blockchain.NewTransaction(id, view.Height(), call)
	if err != nil {
		return blockchain.Transaction{}, fmt.Errorf("attack: forge conflicting record: %w", err)
	}
	return tx, nil
}

// DoubleMine mines two distinct sibling blocks on view's current head — the
// chain-level equivocation primitive. The siblings carry different
// transaction sets (and skewed timestamps, so two empty siblings still get
// distinct hashes); the caller delivers each to a different peer subset via
// DeliverBlock. Mining runs at the chain's difficulty with fixed
// attacker seeds, so the blocks are fully valid under honest validation.
func DoubleMine(ctx context.Context, view *blockchain.Chain, miner string, txsA, txsB []blockchain.Transaction) (*blockchain.Block, *blockchain.Block, error) {
	parentHash, parentHeight := view.Head()
	build := func(txs []blockchain.Transaction, skew int64) *blockchain.Block {
		return &blockchain.Block{
			Header: blockchain.BlockHeader{
				Height:       parentHeight + 1,
				PrevHash:     parentHash,
				MerkleRoot:   blockchain.ComputeMerkleRoot(txs),
				TimeUnixNano: time.Now().UnixNano() + skew,
				Difficulty:   view.Config().Difficulty,
				Miner:        miner,
			},
			Txs: txs,
		}
	}
	a, b := build(txsA, 0), build(txsB, 1)
	if !blockchain.Mine(ctx, a, 0xa77ac0) || !blockchain.Mine(ctx, b, 0xa77ac1) {
		return nil, nil, fmt.Errorf("attack: double-mine cancelled: %w", ctx.Err())
	}
	return a, b, nil
}

// DeliverBlock pushes a block frame directly to the named node addresses,
// bypassing the miner's normal full fan-out — the targeted-delivery half of
// an equivocation attack.
func DeliverBlock(ep transport.Endpoint, b *blockchain.Block, to ...string) {
	payload := b.Encode()
	for _, addr := range to {
		_ = ep.Send(addr, blockchain.WireBlock, payload)
	}
}

// DeliverTx gossips a raw transaction to the named node addresses.
func DeliverTx(ep transport.Endpoint, tx blockchain.Transaction, to ...string) {
	payload := blockchain.EncodeTx(tx)
	for _, addr := range to {
		_ = ep.Send(addr, blockchain.WireTx, payload)
	}
}
