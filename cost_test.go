package drams_test

import (
	"runtime"
	"testing"
	"time"

	"drams/internal/blockchain"
	"drams/internal/core"
)

// What an exchange costs, as counts. N exchanges are driven one after
// another on the default two-cloud deployment, each matched before the next
// starts, so no batching blurs the per-exchange figures. Counts depend on
// the code, not on the host, so they are pinned here, where every change
// runs them. Each row is an equality or a ceiling at the measured value:
//
//   - chain transactions: 181 for 60 exchanges (3.02 per exchange), three
//     per exchange plus the genesis policy publish;
//   - blocks: 128–182 for 60 exchanges (2.13–3.03 per exchange) over hosts
//     and runs. Stated, not pinned: how many transactions share a block
//     depends on timing, and the producer also mines empty blocks on a
//     timer;
//   - signatures per member: the transactions its Senders submitted equal
//     the best-chain transactions signed by the identities it hosts, 121 on
//     cloud-1 (its tenants' LIs and the PAP) and 60 on cloud-2 (the
//     analyser). An equality: each exchange is driven to its match before
//     the next starts, so no LI retries a batch and no transaction expires
//     unmined;
//   - ed25519 verifications per member: exactly the chain transactions the
//     member did not sign, since a member's Senders vouch for their own.
//     That is 60 on cloud-1 and 121 on cloud-2;
//   - bytes allocated per exchange, by the whole in-process fleet while the
//     exchanges run: 37.5–37.8 KiB measured (38.2–38.6 under the race
//     detector); 41.2–41.6 while each LogStored event carried a new
//     envelope with a copy of its record and a membership proof, 42.9–43.6
//     while the mempool allocated each entry and the miner encoded its
//     block after inserting it, 64.9–65.1 before the evidence path
//     allocated only what the chain keeps. A ceiling, with room for the
//     empty blocks and rebroadcasts a slower host interleaves;
//   - bytes on chain, the paper's §III Log Size cost measured on the fleet
//     itself, genesis policy publish included: 129 924 transaction bytes
//     (blockchain.EncodeTx; 2 165.4 per exchange; 131 975 while the codec
//     framed lengths in fixed width, 11.3 bytes more per transaction),
//     90 600 record bytes (each logbatch record's encoding; 1 510 per
//     exchange, four records) and 43 200 bytes of encrypted payload inside
//     them (720 per exchange). Equalities: each was the same in every run,
//     with and without the race detector. Block bytes (Block.Encode) vary
//     with the block count: 2 459–2 470 per exchange over 3.0 blocks per
//     exchange (2 508–2 517 with fixed-width framing), the blocks adding
//     102.9–103.0 bytes each to the transactions they carry (107.0). A
//     block's header is 104 bytes, less a byte per transaction: a block
//     does not repeat the format tag each EncodeTx carries. Ceilings: 2 650
//     per exchange, room for ~100 empty blocks a slower host's timer mines,
//     and 104 bytes of block framing per block, the header's size;
//   - what a member retains of those blocks (ROADMAP item 26's retention
//     row): each block's frame, the encoding it arrived in, and no decoded
//     copy, so the frame bytes a member's chain keeps
//     (Chain.StoredBytes) equal its best chain's block bytes, genesis
//     included. An equality: one producer mines, so no member holds a side
//     branch. That the record holds no decoded body is a property of its
//     type, pinned in internal/blockchain's TestStoredFrameRoundTrip.
func TestCostPerExchange(t *testing.T) {
	const (
		n = 60
		// maxTxsPerExchange is the ceiling on chain transactions per
		// exchange, the genesis publish included (181/60 measured).
		maxTxsPerExchange = 3.02
		// maxKiBPerExchange is the ceiling on bytes allocated per exchange.
		maxKiBPerExchange = 42
		// The bytes on chain for n exchanges, and the ceilings on block
		// bytes per exchange and on block framing per block.
		txBytesWant, recordBytesWant, payloadBytesWant = 129924, 90600, 43200
		maxBlockBytesPerExchange, maxFramingPerBlock   = 2650, 104
	)
	dep := testDeployment(t)
	client := tenantClient(t, dep, "tenant-1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		req := doctorRequest(dep)
		if _, err := client.Decide(ctx20(t), req); err != nil {
			t.Fatal(err)
		}
		if err := dep.WaitForMatched(ctx20(t), req.ID); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	t.Logf("%.1f KiB allocated per exchange", kib)
	if kib > maxKiBPerExchange {
		t.Errorf("%.1f KiB allocated per exchange, ceiling %.0f", kib, float64(maxKiBPerExchange))
	}

	clouds := dep.Topology().Clouds
	nodes := make([]*blockchain.Node, len(clouds))
	for i, c := range clouds {
		node, err := dep.Node(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	// Every member holds the producer's head and nothing is pending, so
	// every transaction it will verify is on its chain.
	settled := func() bool {
		head, _ := nodes[0].Chain().Head()
		for _, node := range nodes {
			if h, _ := node.Chain().Head(); h != head || node.Stats().MempoolLen != 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			t.Fatal("members never settled on one head with empty pools")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The cloud that hosts each signer, as open assembles a fleet: a
	// tenant's LI on the tenant's cloud, the PAP on the infrastructure
	// tenant's, the analyser on the first other cloud.
	topo := dep.Topology()
	infra, err := topo.InfrastructureTenant()
	if err != nil {
		t.Fatal(err)
	}
	host := map[string]string{"pap": infra.Cloud, "analyser": infra.Cloud}
	for _, ten := range topo.Tenants {
		host["li@"+ten.Name] = ten.Cloud
	}
	for _, c := range clouds {
		if c.Name != infra.Cloud {
			host["analyser"] = c.Name
			break
		}
	}

	for i, node := range nodes {
		chain := node.Chain()
		txs, hosted, blocks, kept := 0, 0, chain.Height(), 0
		for h := uint64(0); h <= blocks; h++ {
			b, ok := chain.BlockByHeight(h)
			if !ok {
				t.Fatalf("%s: no block at height %d", clouds[i].Name, h)
			}
			txs += len(b.Txs)
			for _, tx := range b.Txs {
				if host[tx.From] == clouds[i].Name {
					hosted++
				}
			}
			kept += len(b.Encode())
		}
		if stored := chain.StoredBytes(); stored != kept {
			t.Errorf("%s: the chain keeps %d bytes of block frames, want its best chain's %d block bytes",
				clouds[i].Name, stored, kept)
		}
		st := node.Stats()
		t.Logf("%s: %d chain transactions (%.2f per exchange) in %d blocks (%.2f per exchange); signed %d, verified %d",
			clouds[i].Name, txs, float64(txs)/n, blocks, float64(blocks)/n, st.TxsSubmitted, st.Verifier.Verified)
		if st.TxsSubmitted != int64(hosted) {
			t.Errorf("%s: signed %d transactions, want the %d best-chain transactions of the signers it hosts",
				clouds[i].Name, st.TxsSubmitted, hosted)
		}
		if float64(txs) > maxTxsPerExchange*n {
			t.Errorf("%s: %d chain transactions for %d exchanges, ceiling %.2f per exchange", clouds[i].Name, txs, n, maxTxsPerExchange)
		}
		if want := int64(txs) - st.TxsSubmitted; st.Verifier.Verified != want {
			t.Errorf("%s: %d ed25519 verifications, want %d: the %d chain transactions less the %d it signed",
				clouds[i].Name, st.Verifier.Verified, want, txs, st.TxsSubmitted)
		}
		if st.Verifier.Failures != 0 {
			t.Errorf("%s: %d verification failures on an honest fleet", clouds[i].Name, st.Verifier.Failures)
		}
	}

	// Bytes on chain, read off the first member's chain: every member holds
	// the same blocks.
	var blockBytes, txBytes, recordBytes, payloadBytes int
	chain := nodes[0].Chain()
	for h := uint64(1); h <= chain.Height(); h++ {
		b, _ := chain.BlockByHeight(h)
		blockBytes += len(b.Encode())
		for _, tx := range b.Txs {
			txBytes += len(blockchain.EncodeTx(tx))
			if tx.Call.Contract != core.ContractName || tx.Call.Method != core.MethodLogBatch {
				continue
			}
			batch, err := core.DecodeLogBatch(tx.Call.Args)
			if err != nil {
				t.Fatalf("height %d: %v", h, err)
			}
			for _, rec := range batch.Records {
				recordBytes += len(rec.Encode())
				payloadBytes += len(rec.Payload)
			}
		}
	}
	blocks := int(chain.Height())
	t.Logf("bytes on chain: %d block (%.1f per exchange, %.1f framing per block), %d transaction (%.1f), %d record (%.1f), %d payload (%.1f)",
		blockBytes, float64(blockBytes)/n, float64(blockBytes-txBytes)/float64(blocks), txBytes, float64(txBytes)/n,
		recordBytes, float64(recordBytes)/n, payloadBytes, float64(payloadBytes)/n)
	if txBytes != txBytesWant || recordBytes != recordBytesWant || payloadBytes != payloadBytesWant {
		t.Errorf("bytes on chain: %d transaction, %d record, %d payload; want %d, %d, %d",
			txBytes, recordBytes, payloadBytes, txBytesWant, recordBytesWant, payloadBytesWant)
	}
	if blockBytes > maxBlockBytesPerExchange*n {
		t.Errorf("%.1f block bytes per exchange, ceiling %d", float64(blockBytes)/n, maxBlockBytesPerExchange)
	}
	if blockBytes-txBytes > maxFramingPerBlock*blocks {
		t.Errorf("%.1f bytes of block framing per block, ceiling %d", float64(blockBytes-txBytes)/float64(blocks), maxFramingPerBlock)
	}
}
