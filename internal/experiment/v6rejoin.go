package experiment

import (
	"context"
	"fmt"
	"time"

	"drams/internal/blockchain"
	"drams/internal/crypto"
	"drams/internal/netsim"
)

// V6Params parameterise the cold-rejoin experiment: how long a freshly
// (re)started member needs to pull and validate an existing chain from a
// peer, at a bc.getrange window of one block vs the deployed window.
type V6Params struct {
	// ChainLengths are the source chain heights measured.
	ChainLengths []int
	// SyncBatch is the bc.getrange window of the batched mode.
	SyncBatch int
	// NetLatency is the simulated one-way link latency; round-trips cost
	// 2× this, which is what the batched protocol amortises.
	NetLatency time.Duration
}

// DefaultV6Params sweeps rejoins over chains up to 1024 blocks on a 500µs
// link (loopback-datacenter territory).
func DefaultV6Params() V6Params {
	return V6Params{
		ChainLengths: []int{64, 256, 1024},
		SyncBatch:    128,
		NetLatency:   500 * time.Microsecond,
	}
}

// v6Chain fabricates a chain of the given length: one signed one-record
// logbatch per block, which the log-match contract executes, mined at the
// configured difficulty and validated by AddBlock — the shape of a fleet's
// blocks.
func v6Chain(cfg blockchain.Config, id *crypto.Identity, length int) (*blockchain.Chain, error) {
	c := blockchain.NewChain(cfg)
	parent, parentHeight := c.Head()
	genesis, _ := c.BlockByHash(parent)
	for i := 1; i <= length; i++ {
		call, err := logCall(fmt.Sprintf("v6-%d", i), nil)
		if err != nil {
			return nil, err
		}
		tx, err := blockchain.NewTransaction(id, parentHeight, call)
		if err != nil {
			return nil, err
		}
		b := &blockchain.Block{
			Header: blockchain.BlockHeader{
				Height:       parentHeight + 1,
				PrevHash:     parent,
				MerkleRoot:   blockchain.ComputeMerkleRoot([]blockchain.Transaction{tx}),
				TimeUnixNano: genesis.Header.TimeUnixNano + int64(i)*int64(50*time.Millisecond),
				Difficulty:   c.Config().Difficulty,
				Miner:        "v6-source",
			},
			Txs: []blockchain.Transaction{tx},
		}
		if !blockchain.Mine(context.Background(), b, uint64(i)) {
			return nil, fmt.Errorf("V6: mining block %d failed", i)
		}
		if err := c.AddBlock(b); err != nil {
			return nil, fmt.Errorf("V6: apply block %d: %w", i, err)
		}
		parent, parentHeight = b.Hash(), b.Header.Height
	}
	return c, nil
}

// v6Rejoin builds a two-node universe — a source serving an existing chain
// of the given length and a cold joiner — and measures SyncFrom wall time
// plus the transport Calls it spent, at the given bc.getrange window.
func v6Rejoin(p V6Params, length, window int) (elapsed time.Duration, calls, blocks int64, err error) {
	writer := crypto.NewIdentityFromSeed("writer", crypto.SumAll([]byte("v6-writer")))
	cfg := logMatchConfig(4, writer)

	net := netsim.New(netsim.Config{BaseLatency: p.NetLatency, Seed: 66})
	defer net.Close()

	source, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "v6-source", Chain: cfg, Network: net,
		Peers: []string{"v6-source", "v6-joiner"},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer source.Stop()
	chain, err := v6Chain(cfg, writer, length)
	if err != nil {
		return 0, 0, 0, err
	}
	// Feed the fabricated chain into the serving node (hashes are shared,
	// so one fabrication per length would also do; rebuilding keeps each
	// row independent).
	hashes := chain.BestChainHashes()
	for _, h := range hashes[1:] {
		b, _ := chain.BlockByHash(h)
		if err := source.Chain().AddBlock(b); err != nil {
			return 0, 0, 0, err
		}
	}

	joiner, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "v6-joiner", Chain: cfg, Network: net,
		Peers:     []string{"v6-source", "v6-joiner"},
		SyncBatch: window,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer joiner.Stop()

	start := time.Now()
	if err := joiner.SyncFrom("v6-source"); err != nil {
		return 0, 0, 0, err
	}
	elapsed = time.Since(start)
	if joiner.Chain().Height() != uint64(length) {
		return 0, 0, 0, fmt.Errorf("V6: joiner at height %d, want %d", joiner.Chain().Height(), length)
	}
	if joiner.Chain().StateDigest() != source.Chain().StateDigest() {
		return 0, 0, 0, fmt.Errorf("V6: joiner state digest diverged after sync")
	}
	st := joiner.Stats()
	return elapsed, st.SyncCalls, st.SyncBlocks, nil
}

// RunV6 measures cold-rejoin time vs chain length with one block per
// bc.getrange call (the round-trip-per-block baseline) against the batched
// window. The crash-recovery path a restarted -data-dir
// member takes is this sync preceded by the local WAL replay, so the rows
// bound how long a member stays behind the fleet after a restart.
func RunV6(p V6Params) (Table, error) {
	t := Table{
		ID:     "V6",
		Title:  "cold rejoin: catch-up time vs chain length, range-sync window 1 vs batched",
		Header: []string{"chain_len", "mode", "sync_ms", "calls", "blocks", "blocks_per_s"},
		Notes: []string{
			fmt.Sprintf("simulated link latency %v each way; batched mode fetches %d blocks per bc.getrange call", p.NetLatency, p.SyncBatch),
			"each block carries one signed one-record logbatch that the joiner's log-match contract executes",
			"every fetched block passes full validation (signatures via the TxVerifier pipeline, PoW, difficulty, the expiry and replay rule)",
			"window 1 is the baseline: one bc.getrange round-trip per block, calls = blocks + 1 (the head probe)",
		},
	}
	for _, length := range p.ChainLengths {
		for _, window := range []int{1, p.SyncBatch} {
			elapsed, calls, blocks, err := v6Rejoin(p, length, window)
			if err != nil {
				return t, err
			}
			mode := fmt.Sprintf("batched(%d)", window)
			if window == 1 {
				mode = "window 1"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", length),
				mode,
				fmt.Sprintf("%.1f", float64(elapsed.Microseconds())/1000),
				fmt.Sprintf("%d", calls),
				fmt.Sprintf("%d", blocks),
				rate(length, elapsed),
			})
		}
	}
	return t, nil
}
