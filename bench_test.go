// bench_test.go holds micro-benchmarks of the building blocks (policy
// evaluation, signature verification, the analyser, digests, Merkle batches,
// sealing, mining) and of one decision through a standard deployment. Run:
//
//	go test -run xxx -bench=. -benchmem
//
// The experiment tables README "Tests and benchmarks" and ARCHITECTURE §3
// list run in cmd/drams-bench; the end-to-end workloads run in benchmark/.
package drams_test

import (
	"context"
	"fmt"
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
	"drams/internal/xacml"
)

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

// BenchmarkPDPEvaluate1000Rules evaluates a repeated working set from
// scratch at 1000 rules, as the fleet's PDP does for every request.
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
	key := crypto.NewMACKey(crypto.DeriveKey("bench", "K"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.DecisionTag(&key, "req-1", xacml.Permit)
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
	dep, err := experiment.NewStandardDeployment(false, 0)
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
	dep, err := experiment.NewStandardDeployment(true, 0)
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

// BenchmarkPEPDecideWithAsyncProbes isolates the PEP hot path with async
// logging attached (the per-request overhead DRAMS adds in its default
// configuration).
func BenchmarkPEPDecideWithAsyncProbes(b *testing.B) {
	dep, err := experiment.NewStandardDeployment(false, 1<<20)
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
