// bench_test.go regenerates the experiment tables README "Tests and
// benchmarks" and ARCHITECTURE §3 list (one Benchmark per experiment E1–E8)
// plus micro-benchmarks of the building blocks. Run:
//
//	go test -bench=. -benchmem
//
// The E-benches execute a full experiment driver per iteration with reduced
// default parameters and publish the headline numbers via b.ReportMetric;
// cmd/drams-bench runs the full-size sweeps and prints the complete tables.
package drams_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"drams"
	"drams/internal/analysis"
	"drams/internal/attack"
	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/experiment"
	"drams/internal/merkle"
	"drams/internal/xacml"
)

// metric extracts a numeric cell from an experiment table by row label
// prefix and column name; returns -1 when absent.
func metric(tab experiment.Table, rowPrefix, col string) float64 {
	ci := -1
	for i, h := range tab.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		return -1
	}
	for _, row := range tab.Rows {
		if len(row) > ci && len(row[0]) >= len(rowPrefix) && row[0][:len(rowPrefix)] == rowPrefix {
			v, err := strconv.ParseFloat(row[ci], 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

func BenchmarkE1EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunE1(experiment.E1Params{Requests: 12, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[0] == "match (on-chain) p50 (ms)" {
				if v, err := strconv.ParseFloat(row[1], 64); err == nil {
					b.ReportMetric(v, "match-p50-ms")
				}
			}
		}
	}
}

func BenchmarkE2LogSizeLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunE2(experiment.E2Params{
			Sizes: []int{64, 16384}, Difficulties: []uint8{8}, Samples: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(tab, "8", "p50_ms"), "small-log-p50-ms")
	}
}

func BenchmarkE3PoWTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunE3(experiment.E3Params{Difficulties: []uint8{8, 14}, Blocks: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(tab, "14", "mean_block_ms"), "d14-block-ms")
	}
}

func BenchmarkE4HybridTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunE4(experiment.E4Params{Writes: 64, BatchSizes: []int{16}, ValueSize: 256})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(tab, "hybrid-16", "p50_ms"), "hybrid-write-p50-ms")
		b.ReportMetric(metric(tab, "pure-chain", "p50_ms"), "chain-write-p50-ms")
	}
}

func BenchmarkE5DetectionMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunE5(experiment.E5Params{Trials: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(tab, "A3", "mean_latency_ms"), "a3-detect-ms")
	}
}

func BenchmarkE6MonitorOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunE6(experiment.E6Params{Requests: 24, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(tab, "off", "p50_ms"), "off-p50-ms")
		b.ReportMetric(metric(tab, "async", "p50_ms"), "async-p50-ms")
	}
}

func BenchmarkE7Analyser(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunE7(experiment.E7Params{RuleCounts: []int{10, 100}, Requests: 100})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(tab, "100", "expected_us_per_req"), "100rules-us-per-req")
	}
}

func BenchmarkE8FederationScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunE8(experiment.E8Params{CloudCounts: []int{2, 4}, Requests: 12})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(tab, "4", "throughput_req_s"), "4clouds-req-s")
	}
}

func BenchmarkAB1TimeoutWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.RunAB1(experiment.AB1Params{TimeoutBlocks: []uint64{10}, Trials: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(tab, "10", "detect_mean_ms"), "d10-detect-ms")
	}
}

func BenchmarkAB2AnalyserAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAB2(experiment.AB2Params{Trials: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the building blocks ---

func benchPolicyAndRequests(n int) (*xacml.PolicySet, []*xacml.Request) {
	gen := xacml.NewGenerator(uint64(n), xacml.GenParams{
		Rules: n, Policies: 1, Attrs: 4, ValuesPerAttr: 4, MaxCondDepth: 2,
	})
	ps := gen.PolicySet("bench", "v1")
	reqs := make([]*xacml.Request, 256)
	for i := range reqs {
		reqs[i] = gen.Request(fmt.Sprintf("r%d", i))
	}
	return ps, reqs
}

func BenchmarkPDPEvaluate100Rules(b *testing.B) {
	ps, reqs := benchPolicyAndRequests(100)
	pdp := xacml.NewPDP(ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdp.Evaluate(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDPEvaluate1000Rules / ...Cached1000Rules are the decision-cache
// pair: the same repeated working set evaluated from scratch versus through
// the lock-striped cache (after the first cycle every request is a hit).
func BenchmarkPDPEvaluate1000Rules(b *testing.B) {
	ps, reqs := benchPolicyAndRequests(1000)
	pdp := xacml.NewPDP(ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdp.Evaluate(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPDPEvaluateCached1000Rules(b *testing.B) {
	ps, reqs := benchPolicyAndRequests(1000)
	pdp := xacml.NewCachedPDP(ps, 1024)
	for _, r := range reqs { // warm the cache
		if _, err := pdp.Evaluate(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdp.Evaluate(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchVerifierBatch builds a block-sized batch of signed transactions and
// a registry accepting them.
func benchVerifierBatch(b *testing.B, n int) ([]blockchain.Transaction, *blockchain.IdentityRegistry) {
	b.Helper()
	var seed [32]byte
	seed[0] = 0x77
	id := crypto.NewIdentityFromSeed("bench-verify", seed)
	reg := blockchain.NewIdentityRegistry(id.Public())
	txs := make([]blockchain.Transaction, n)
	for i := range txs {
		call := contract.Call{Contract: "kv", Method: "put", Args: []byte(fmt.Sprintf(`{"key":"k%d"}`, i))}
		tx, err := blockchain.NewTransaction(id, 0, call)
		if err != nil {
			b.Fatal(err)
		}
		txs[i] = tx
	}
	return txs, reg
}

// verifyEach verifies txs one after another, as block validation does.
func verifyEach(v *blockchain.TxVerifier, txs []blockchain.Transaction) error {
	for i := range txs {
		if err := v.VerifyTx(&txs[i]); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkBlockSigVerifyPipelineCold256 measures validation of a block
// whose transactions this node never admitted: a fresh verifier per pass,
// so every signature is checked, one after another.
func BenchmarkBlockSigVerifyPipelineCold256(b *testing.B) {
	txs, reg := benchVerifierBatch(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := blockchain.NewTxVerifier(reg, blockchain.VerifierConfig{})
		if err := verifyEach(v, txs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockSigVerifyPipelineWarm256 measures block validation in the
// pipeline's steady state: every transaction was already verified at
// mempool admission, so validation is pure memo hits.
func BenchmarkBlockSigVerifyPipelineWarm256(b *testing.B) {
	txs, reg := benchVerifierBatch(b, 256)
	v := blockchain.NewTxVerifier(reg, blockchain.VerifierConfig{})
	if err := verifyEach(v, txs); err != nil { // admission pass
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verifyEach(v, txs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyserExpected100Rules(b *testing.B) {
	ps, reqs := benchPolicyAndRequests(100)
	compiled := analysis.Compile(ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = compiled.ExpectedSimple(reqs[i%len(reqs)])
	}
}

func BenchmarkPolicyCompile100Rules(b *testing.B) {
	ps, _ := benchPolicyAndRequests(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.Compile(ps)
	}
}

func BenchmarkRequestDigest(b *testing.B) {
	req := xacml.NewRequest("r").
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatResource, "id", xacml.Int(42)).
		Add(xacml.CatAction, "op", xacml.String("read"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = req.Digest()
	}
}

func BenchmarkMerkleBuild1024(b *testing.B) {
	leaves := make([][]byte, 1024)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merkle.Build(leaves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkleProveVerify1024(b *testing.B) {
	leaves := make([][]byte, 1024)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	tree, err := merkle.Build(leaves)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % 1024
		proof, err := tree.Prove(idx)
		if err != nil {
			b.Fatal(err)
		}
		if !merkle.Verify(tree.Root(), leaves[idx], proof) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkCipherSealOpen4KiB(b *testing.B) {
	cipher, err := crypto.NewCipher(crypto.DeriveKey("bench", "K"))
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := cipher.Encrypt(payload, []byte("req"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cipher.Decrypt(ct, []byte("req")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineDifficulty12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		blk := &blockchain.Block{Header: blockchain.BlockHeader{
			Height:     uint64(i + 1),
			PrevHash:   crypto.Sum([]byte{byte(i)}),
			Difficulty: 12,
			Miner:      "bench",
		}}
		if !blockchain.Mine(context.Background(), blk, uint64(i)*7919) {
			b.Fatal("cancelled")
		}
	}
}

func BenchmarkDecisionTag(b *testing.B) {
	key := crypto.DeriveKey("bench", "K")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.DecisionTag(key, "req-1", xacml.Permit)
	}
}

func BenchmarkRewriteProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = attack.RewriteProbability(0.3, 6)
	}
}

// BenchmarkMonitoredRequest measures one full monitored exchange: PEP →
// PDP → enforcement, all four logs mined, analyser verdict mined, Matched
// event observed.
func BenchmarkMonitoredRequest(b *testing.B) {
	dep, err := experiment.NewStandardDeployment(2, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	client, err := dep.Client("tenant-1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := experiment.StandardRequest(dep, i)
		if _, err := client.Decide(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err := dep.WaitForMatched(ctx, req.ID)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmonitoredRequest is the E6 baseline counterpart.
func BenchmarkUnmonitoredRequest(b *testing.B) {
	dep, err := experiment.NewStandardDeployment(2, true, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	client, err := dep.Client("tenant-1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := experiment.StandardRequest(dep, i)
		if _, err := client.Decide(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink drams.Enforcement

// BenchmarkPEPDecideAsyncProbes isolates the PEP hot path with async
// logging attached (the per-request overhead DRAMS adds in its default
// configuration).
func BenchmarkPEPDecideAsyncProbes(b *testing.B) {
	dep, err := experiment.NewStandardDeployment(2, false, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	client, err := dep.Client("tenant-1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := experiment.StandardRequest(dep, i)
		enf, err := client.Decide(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = enf
	}
}
