package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"drams/internal/attack"
	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/logger"
	"drams/internal/netsim"
	"drams/internal/xacml"
)

// V8Params parameterise the hot-path benchmark: the end-to-end effect of the
// binary wire codec, Merkle-batched probe anchoring, and parallel block
// apply, each measured against its pre-optimisation baseline.
type V8Params struct {
	// Requests is the number of decisions measured per transport backend.
	Requests int
	// Batch is the DecideBatch pipeline depth.
	Batch int
	// Records is the probe-record burst for the anchoring-count comparison.
	Records int
	// Window is the LI flush window under test (the deployed default is 16).
	Window int
	// ApplyBlocks/ApplyTxs shape the block-apply comparison: ApplyBlocks
	// blocks of ApplyTxs disjoint-key transactions each.
	ApplyBlocks, ApplyTxs int
	// V7Trials re-runs the full V7 attack catalogue with this many trials
	// per class under batched anchoring; 0 skips the detection row.
	V7Trials int
}

// DefaultV8Params measures 512 decisions per backend, a 64-record anchoring
// burst at the default window, four 128-tx blocks, and one trial of every
// attack class.
func DefaultV8Params() V8Params {
	return V8Params{Requests: 512, Batch: 64, Records: 64, Window: 16,
		ApplyBlocks: 4, ApplyTxs: 128, V7Trials: 1}
}

// allocsPerRun measures the average number of heap allocations per call to f
// (same protocol as testing.AllocsPerRun, without importing testing into a
// shipped binary).
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// v8DecideRate measures pipelined DecideBatch throughput on one backend.
func v8DecideRate(p V8Params, newBackend func(*xacml.PolicySet) (*v4Backend, error)) (string, float64, error) {
	b, err := newBackend(StandardPolicy("v1"))
	if err != nil {
		return "", 0, err
	}
	defer b.close()
	newReqs := func() []*xacml.Request {
		reqs := make([]*xacml.Request, p.Requests)
		roles := []string{"doctor", "nurse", "intern"}
		for i := range reqs {
			reqs[i] = xacml.NewRequest(fmt.Sprintf("v8-%d", i)).
				Add(xacml.CatSubject, "role", xacml.String(roles[i%len(roles)])).
				Add(xacml.CatAction, "op", xacml.String("read")).
				Add(xacml.CatResource, "type", xacml.String("record"))
		}
		return reqs
	}
	ctx := context.Background()
	if _, err := b.pep.DecideBatch(ctx, newReqs()); err != nil {
		return "", 0, fmt.Errorf("V8 %s warm-up: %w", b.name, err)
	}
	reqs := newReqs()
	start := time.Now()
	for off := 0; off < len(reqs); off += p.Batch {
		end := off + p.Batch
		if end > len(reqs) {
			end = len(reqs)
		}
		if _, err := b.pep.DecideBatch(ctx, reqs[off:end]); err != nil {
			return "", 0, fmt.Errorf("V8 %s: %w", b.name, err)
		}
	}
	return b.name, float64(p.Requests) / time.Since(start).Seconds(), nil
}

// v8AnchorTxs logs a burst of probe records through an LI with the given
// flush window and returns how many on-chain transactions anchored them.
// The burst is enqueued before the worker starts, so windows fill
// deterministically.
func v8AnchorTxs(records, window int) (int, error) {
	var seed [32]byte
	seed[0] = 8
	id := crypto.NewIdentityFromSeed("li@v8", seed)
	reg := contract.NewRegistry()
	reg.MustRegister(core.NewLogMatchContract(core.MatchConfig{TimeoutBlocks: 500}))
	net := netsim.New(netsim.Config{Seed: 8})
	defer net.Close()
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "v8-anchor",
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
		return 0, err
	}
	defer node.Stop()
	li, err := logger.NewLI(logger.LIConfig{
		Name: "li@v8", Tenant: "v8", Node: node, Identity: id,
		Key:  crypto.DeriveKey("v8", "anchor"),
		Mode: logger.SubmitAsync, Workers: 1,
		QueueSize: records + 8, FlushWindow: window,
	})
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	for i := 0; i < records; i++ {
		rec := core.LogRecord{
			Kind:      core.KindPEPRequest,
			ReqID:     fmt.Sprintf("v8-%d", i),
			Tenant:    "v8",
			Agent:     "agent@v8",
			ReqDigest: crypto.Sum([]byte(fmt.Sprintf("request-%d", i))),
		}
		if err := li.Log(ctx, rec); err != nil {
			return 0, err
		}
	}
	node.Start()
	li.Start()
	defer li.Stop()

	deadline := time.Now().Add(60 * time.Second)
	for stored := 0; stored < records; {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("V8: only %d/%d records anchored in time", stored, records)
		}
		stored = 0
		node.Chain().ReadState(core.ContractName, func(st contract.StateDB) {
			for i := 0; i < records; i++ {
				if _, ok := core.ReadStoredRecord(st, fmt.Sprintf("v8-%d", i), core.KindPEPRequest); ok {
					stored++
				}
			}
		})
		if stored < records {
			time.Sleep(5 * time.Millisecond)
		}
	}

	txs := 0
	chain := node.Chain()
	for _, h := range chain.BestChainHashes() {
		b, ok := chain.BlockByHash(h)
		if !ok {
			continue
		}
		for i := range b.Txs {
			call := b.Txs[i].Call
			if call.Contract == core.ContractName &&
				(call.Method == core.MethodLog || call.Method == core.MethodLogBatch) {
				txs++
			}
		}
	}
	if txs == 0 {
		return 0, fmt.Errorf("V8: no anchoring transactions on chain")
	}
	return txs, nil
}

// v8ApplyRates mines identical blocks of disjoint-key transactions and
// measures block application (signature batch verification + contract
// execution + commit) on a sequential chain vs a parallel-apply chain.
func v8ApplyRates(p V8Params) (seqRate, parRate float64, err error) {
	var ids []*crypto.Identity
	var pubs []crypto.PublicIdentity
	for i := 0; i < 8; i++ {
		var seed [32]byte
		seed[0], seed[1] = 88, byte(i+1)
		id := crypto.NewIdentityFromSeed(fmt.Sprintf("v8-sender-%d", i), seed)
		ids = append(ids, id)
		pubs = append(pubs, id.Public())
	}
	newCfg := func() blockchain.Config {
		reg := contract.NewRegistry()
		reg.MustRegister(&contract.KVContract{ContractName: "kv"})
		return blockchain.Config{
			Difficulty:  4,
			Identities:  pubs,
			Registry:    reg,
			GenesisTime: time.Unix(1700000000, 0).UTC(),
		}
	}
	parCfg := newCfg()
	parCfg.ApplyWorkers = 4 // force a real pool even on small hosts
	seqCfg := newCfg()
	seqCfg.SequentialApply = true
	par, seq := blockchain.NewChain(parCfg), blockchain.NewChain(seqCfg)

	perSender := p.ApplyTxs / len(ids)
	if perSender < 1 {
		perSender = 1
	}
	var seqElapsed, parElapsed time.Duration
	totalTxs := 0
	head, _ := par.Head()
	parent, _ := par.BlockByHash(head)
	for blk := 0; blk < p.ApplyBlocks; blk++ {
		var txs []blockchain.Transaction
		for s, id := range ids {
			for n := 0; n < perSender; n++ {
				nonce := uint64(blk*perSender + n + 1)
				args := []byte(fmt.Sprintf(`{"key":"v8/%d/%d/%d","value":"dg=="}`, s, blk, n))
				tx, err := blockchain.NewTransaction(id, nonce, contract.Call{
					Contract: "kv", Method: "put", Args: args,
				})
				if err != nil {
					return 0, 0, err
				}
				txs = append(txs, tx)
			}
		}
		b := &blockchain.Block{
			Header: blockchain.BlockHeader{
				Height:       parent.Header.Height + 1,
				PrevHash:     parent.Hash(),
				MerkleRoot:   blockchain.ComputeMerkleRoot(txs),
				TimeUnixNano: parent.Header.TimeUnixNano + int64(100*time.Millisecond),
				Difficulty:   par.NextDifficulty(),
				Miner:        "v8-miner",
			},
			Txs: txs,
		}
		if !blockchain.Mine(context.Background(), b, 0) {
			return 0, 0, fmt.Errorf("V8: mining failed")
		}
		start := time.Now()
		if err := par.AddBlock(b); err != nil {
			return 0, 0, fmt.Errorf("V8 parallel apply: %w", err)
		}
		parElapsed += time.Since(start)
		start = time.Now()
		if err := seq.AddBlock(b); err != nil {
			return 0, 0, fmt.Errorf("V8 sequential apply: %w", err)
		}
		seqElapsed += time.Since(start)
		totalTxs += len(txs)
		parent = b
	}
	if par.StateDigest() != seq.StateDigest() {
		return 0, 0, fmt.Errorf("V8: parallel apply diverged from sequential")
	}
	return float64(totalTxs) / seqElapsed.Seconds(), float64(totalTxs) / parElapsed.Seconds(), nil
}

// RunV8 benchmarks the zero-allocation hot path end to end: pipelined
// decision throughput over netsim vs TCP loopback (binary tx/block codec on
// the wire), on-chain anchoring transactions per probe burst at flush window
// 1 vs the deployed window, encode+decode allocations for the binary codec
// vs encoding/json on the same structs, block-apply throughput sequential vs parallel —
// and re-runs the V7 attack catalogue to show detection is intact under
// Merkle-batched anchoring.
func RunV8(p V8Params) (Table, error) {
	t := Table{
		ID:     "V8",
		Title:  "zero-allocation hot path: binary codec, batched anchoring, parallel apply",
		Header: []string{"metric", "baseline", "hot_path", "ratio"},
		Notes: []string{
			fmt.Sprintf("decide row: %d decisions per backend, DecideBatch depth %d; baseline netsim, hot path TCP loopback (binary wire codec)", p.Requests, p.Batch),
			fmt.Sprintf("anchor row: on-chain txs anchoring a %d-record probe burst; baseline flush window 1 (one tx per record), hot path window %d (one Merkle-rooted tx per window)", p.Records, p.Window),
			"alloc rows: heap allocations per operation (AllocsPerRun protocol); baseline encoding/json on the wire structs, hot path binary codec",
			fmt.Sprintf("apply row: end-to-end AddBlock (verify+execute+commit) of %d blocks x %d disjoint-key txs; baseline SequentialApply, hot path 4 OCC apply workers", p.ApplyBlocks, p.ApplyTxs),
		},
	}
	if p.Batch < 1 || p.Requests < p.Batch {
		return t, fmt.Errorf("V8: batch %d must be in [1, Requests=%d]", p.Batch, p.Requests)
	}
	if p.Window < 2 || p.Records < p.Window {
		return t, fmt.Errorf("V8: window %d must be in [2, Records=%d]", p.Window, p.Records)
	}

	// Decision throughput: netsim baseline vs TCP loopback.
	_, netsimRate, err := v8DecideRate(p, newV4Netsim)
	if err != nil {
		return t, err
	}
	_, tcpRate, err := v8DecideRate(p, newV4TCP)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"decide_batch_req_s", fmt.Sprintf("%.1f", netsimRate), fmt.Sprintf("%.1f", tcpRate),
		fmt.Sprintf("%.2fx", tcpRate/netsimRate),
	})

	// Anchoring transaction volume: window 1 vs the deployed window.
	unbatched, err := v8AnchorTxs(p.Records, 1)
	if err != nil {
		return t, err
	}
	batched, err := v8AnchorTxs(p.Records, p.Window)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("anchor_txs_per_%d_records", p.Records),
		fmt.Sprintf("%d", unbatched), fmt.Sprintf("%d", batched),
		fmt.Sprintf("%.1fx", float64(unbatched)/float64(batched)),
	})

	// Codec allocations: binary vs encoding/json on the same structs (the
	// format the codec replaced).
	var seedTx [32]byte
	seedTx[0] = 81
	txID := crypto.NewIdentityFromSeed("v8-codec", seedTx)
	tx, err := blockchain.NewTransaction(txID, 1, contract.Call{
		Contract: "kv", Method: "put", Args: []byte(`{"key":"v8/alloc","value":"dg=="}`),
	})
	if err != nil {
		return t, err
	}
	txBin := blockchain.EncodeTx(tx)
	txJSON, err := json.Marshal(tx)
	if err != nil {
		return t, err
	}
	rtBin := allocsPerRun(200, func() {
		_ = blockchain.EncodeTx(tx)
		_, _ = blockchain.DecodeTx(txBin)
	})
	rtJSON := allocsPerRun(200, func() {
		_, _ = json.Marshal(tx)
		_ = json.Unmarshal(txJSON, new(blockchain.Transaction))
	})
	t.Rows = append(t.Rows, []string{
		"tx_roundtrip_allocs_op", fmt.Sprintf("%.1f", rtJSON), fmt.Sprintf("%.1f", rtBin),
		fmt.Sprintf("%.1fx", rtJSON/maxF(rtBin, 0.5)),
	})
	blk := &blockchain.Block{Header: blockchain.BlockHeader{Height: 1, Miner: "v8"}}
	for i := 0; i < 16; i++ {
		btx, err := blockchain.NewTransaction(txID, uint64(i+2), contract.Call{
			Contract: "kv", Method: "put", Args: []byte(fmt.Sprintf(`{"key":"v8/b/%d","value":"dg=="}`, i)),
		})
		if err != nil {
			return t, err
		}
		blk.Txs = append(blk.Txs, btx)
	}
	blk.Header.MerkleRoot = blockchain.ComputeMerkleRoot(blk.Txs)
	blkBin := blk.Encode()
	blkJSON, err := json.Marshal(blk)
	if err != nil {
		return t, err
	}
	decBin := allocsPerRun(200, func() { _, _ = blockchain.DecodeBlock(blkBin) })
	decJSON := allocsPerRun(200, func() { _ = json.Unmarshal(blkJSON, new(blockchain.Block)) })
	t.Rows = append(t.Rows, []string{
		"block_decode_allocs_op", fmt.Sprintf("%.1f", decJSON), fmt.Sprintf("%.1f", decBin),
		fmt.Sprintf("%.1fx", decJSON/maxF(decBin, 0.5)),
	})

	// Block application: sequential vs parallel OCC.
	seqRate, parRate, err := v8ApplyRates(p)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"block_apply_tx_s", fmt.Sprintf("%.1f", seqRate), fmt.Sprintf("%.1f", parRate),
		fmt.Sprintf("%.2fx", parRate/seqRate),
	})

	// Detection integrity: the full V7 attack catalogue under the batched
	// anchoring pipeline (batching is the deployed default, so the campaign
	// exercises Merkle-rooted anchors end to end).
	if p.V7Trials > 0 {
		rep, err := attack.Campaign{
			Scenarios: attack.ChaosCatalogue(), Trials: p.V7Trials, Seed: 7,
		}.Run()
		if err != nil {
			return t, err
		}
		detected, trials, falsePos := 0, 0, 0
		for _, r := range rep.Results {
			if r.Err != "" {
				return t, fmt.Errorf("V8: attack class %s: %s", r.Class, r.Err)
			}
			detected += r.Detected
			trials += r.Trials
			falsePos += r.FalsePositives
		}
		t.Rows = append(t.Rows, []string{
			"v7_catalogue_detected",
			fmt.Sprintf("%d/%d", detected, trials),
			pct(detected, trials),
			fmt.Sprintf("fp=%d", falsePos),
		})
		t.Notes = append(t.Notes,
			fmt.Sprintf("v7 row: all %d attack classes re-run with %d trial(s) each under batched anchoring; hot_path is the detection rate, ratio column reports false positives", len(rep.Results), p.V7Trials))
	}
	return t, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
