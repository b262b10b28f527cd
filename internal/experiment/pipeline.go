package experiment

import (
	"fmt"
	"time"

	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/xacml"
)

// V1Params parameterise the signature-verification pipeline comparison.
type V1Params struct {
	// BatchSizes are the transaction batch sizes compared (block-sized).
	BatchSizes []int
	// Workers sizes the batch verifier's pool (0 = GOMAXPROCS).
	Workers int
}

// DefaultV1Params sweeps typical block sizes.
func DefaultV1Params() V1Params {
	return V1Params{BatchSizes: []int{64, 256, 1024}}
}

// RunV1 compares block-validation signature checking across the three
// verification modes: sequential (pre-pipeline baseline), batch with a cold
// cache (worker-pool fanout only), and batch with a warm cache (the steady
// state: every transaction was already verified at mempool admission, so
// block validation is pure cache hits).
func RunV1(p V1Params) (Table, error) {
	t := Table{
		ID:     "V1",
		Title:  "signature-verification pipeline: block validation cost per mode",
		Header: []string{"batch", "sequential_us_per_tx", "batch_cold_us_per_tx", "batch_warm_us_per_tx", "warm_speedup"},
		Notes: []string{
			"sequential: one inline ed25519 check per tx (VerifierConfig.Sequential baseline)",
			"batch-cold: worker-pool fanout, empty verified-tx LRU",
			"batch-warm: every tx already verified at mempool admission (gossip steady state)",
		},
	}
	var seed [32]byte
	seed[0] = 0x51
	id := crypto.NewIdentityFromSeed("v1-writer", seed)
	reg := blockchain.NewIdentityRegistry(id.Public())
	for _, size := range p.BatchSizes {
		txs := make([]blockchain.Transaction, size)
		for i := range txs {
			call := contract.Call{Contract: "kv", Method: "put", Args: []byte(fmt.Sprintf(`{"key":"k%d"}`, i))}
			tx, err := blockchain.NewTransaction(id, uint64(i+1), call)
			if err != nil {
				return t, err
			}
			txs[i] = tx
		}

		seqStart := time.Now()
		for i := range txs {
			if err := reg.VerifyTx(&txs[i]); err != nil {
				return t, err
			}
		}
		seqUs := usPer(time.Since(seqStart), size)

		cold := blockchain.NewTxVerifier(reg, blockchain.VerifierConfig{Workers: p.Workers, CacheSize: -1})
		coldStart := time.Now()
		if err := cold.VerifyAll(txs); err != nil {
			return t, err
		}
		coldUs := usPer(time.Since(coldStart), size)

		warm := blockchain.NewTxVerifier(reg, blockchain.VerifierConfig{Workers: p.Workers, CacheSize: 2 * size})
		if err := warm.VerifyAll(txs); err != nil { // admission pass fills the LRU
			return t, err
		}
		warmStart := time.Now()
		if err := warm.VerifyAll(txs); err != nil {
			return t, err
		}
		warmUs := usPer(time.Since(warmStart), size)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.2f", seqUs), fmt.Sprintf("%.2f", coldUs), fmt.Sprintf("%.2f", warmUs),
			fmt.Sprintf("%.1fx", seqUs/warmUs),
		})
	}
	return t, nil
}

// V2Params parameterise the PDP decision-cache comparison.
type V2Params struct {
	// RuleCounts are the policy sizes swept.
	RuleCounts []int
	// Requests is the number of distinct requests in the working set.
	Requests int
	// Repeats is how many passes are made over the working set (the cached
	// PDP misses on the first pass and hits on the rest).
	Repeats int
	// CacheSize bounds the decision cache (0 = default).
	CacheSize int
}

// DefaultV2Params sweeps small-to-large policies over a repeated working
// set.
func DefaultV2Params() V2Params {
	return V2Params{RuleCounts: []int{10, 100, 1000}, Requests: 128, Repeats: 8}
}

// RunV2 measures repeated-request PDP evaluation with and without the
// decision cache, cross-checking that both produce identical decisions.
func RunV2(p V2Params) (Table, error) {
	t := Table{
		ID:     "V2",
		Title:  "PDP decision cache: repeated-request evaluation cost",
		Header: []string{"rules", "uncached_us_per_req", "cached_us_per_req", "speedup", "hit_rate"},
		Notes: []string{
			fmt.Sprintf("%d distinct requests, %d passes; the cache misses on pass 1, hits after", p.Requests, p.Repeats),
			"cached and uncached decisions are cross-checked for equality each run",
		},
	}
	for _, rules := range p.RuleCounts {
		gen := xacml.NewGenerator(uint64(rules), xacml.GenParams{
			Rules: rules, Policies: 1, Attrs: 4, ValuesPerAttr: 4, MaxCondDepth: 2,
		})
		ps := gen.PolicySet("v2", "v1")
		reqs := make([]*xacml.Request, p.Requests)
		for i := range reqs {
			reqs[i] = gen.Request(fmt.Sprintf("r%d", i))
		}
		total := p.Requests * p.Repeats

		plain := xacml.NewPDP(ps)
		plainStart := time.Now()
		plainRes := make([]xacml.Decision, len(reqs))
		for rep := 0; rep < p.Repeats; rep++ {
			for i, r := range reqs {
				res, err := plain.Evaluate(r)
				if err != nil {
					return t, err
				}
				plainRes[i] = res.Decision
			}
		}
		plainUs := usPer(time.Since(plainStart), total)

		cached := xacml.NewCachedPDP(ps, p.CacheSize)
		cachedStart := time.Now()
		for rep := 0; rep < p.Repeats; rep++ {
			for i, r := range reqs {
				res, err := cached.Evaluate(r)
				if err != nil {
					return t, err
				}
				if res.Decision != plainRes[i] {
					return t, fmt.Errorf("V2 rules=%d req %d: cached %v != uncached %v", rules, i, res.Decision, plainRes[i])
				}
			}
		}
		cachedUs := usPer(time.Since(cachedStart), total)
		stats := cached.Cache().Stats()
		hitRate := float64(stats.Hits) / float64(stats.Hits+stats.Misses)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rules),
			fmt.Sprintf("%.2f", plainUs), fmt.Sprintf("%.2f", cachedUs),
			fmt.Sprintf("%.1fx", plainUs/cachedUs),
			fmt.Sprintf("%.2f", hitRate),
		})
	}
	return t, nil
}

// usPer converts a total duration over n operations to µs per operation.
func usPer(d time.Duration, n int) float64 {
	return float64(d.Microseconds()) / float64(n)
}
