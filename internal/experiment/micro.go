package experiment

import (
	"context"
	"fmt"
	"time"

	"drams/internal/analysis"
	"drams/internal/attack"
	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/idgen"
	"drams/internal/metrics"
	"drams/internal/netsim"
	"drams/internal/xacml"
)

// logMatchConfig is the chain configuration of E2's and V6's chains: the
// log-match contract, with a window Δ no run reaches, and writer as the one
// allowlisted identity.
func logMatchConfig(difficulty uint8, writer *crypto.Identity) blockchain.Config {
	reg := contract.NewRegistry()
	reg.MustRegister(core.NewLogMatchContract(core.MatchConfig{TimeoutBlocks: 1 << 20}))
	return blockchain.Config{
		Difficulty: difficulty,
		Identities: []crypto.PublicIdentity{writer.Public()},
		Registry:   reg,
	}
}

// logCall is the one-record logbatch E2 stores and each block of V6's
// source chain carries: a pep.request record for reqID with payload.
func logCall(reqID string, payload []byte) (contract.Call, error) {
	return core.LogCall(core.LogRecord{
		Kind:      core.KindPEPRequest,
		ReqID:     reqID,
		Tenant:    "bench",
		Agent:     "bench-agent",
		ReqDigest: crypto.Sum([]byte(reqID)),
		Payload:   payload,
	})
}

// singleNode spins up one mining chain node with the log-match contract and
// an allowlisted writer identity.
func singleNode(difficulty uint8) (*blockchain.Node, *crypto.Identity, func(), error) {
	var seed [32]byte
	seed[0] = 0x33
	id := crypto.NewIdentityFromSeed("bench-writer", seed)
	net := netsim.New(netsim.Config{Seed: 5})
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name:    "bench-node",
		Chain:   logMatchConfig(difficulty, id),
		Network: net,
		Mine:    true,
	})
	if err != nil {
		net.Close()
		return nil, nil, nil, err
	}
	node.Start()
	cleanup := func() {
		node.Stop()
		net.Close()
	}
	return node, id, cleanup, nil
}

// E2Params parameterise the log-size/latency sweep.
type E2Params struct {
	Sizes        []int   // payload bytes
	Difficulties []uint8 // PoW bits
	Samples      int     // records per point
}

// DefaultE2Params covers 64 B – 64 KiB at three difficulties.
func DefaultE2Params() E2Params {
	return E2Params{
		Sizes:        []int{64, 1024, 4096, 16384, 65536},
		Difficulties: []uint8{8, 12, 16},
		Samples:      8,
	}
}

// RunE2 measures the time to store an encrypted log record of a given size
// on the chain with confirmation — the paper's §III claim: "the bigger the
// size is, the higher is the latency to store the log on the blockchain",
// with PoW difficulty as the tunable.
func RunE2(p E2Params) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "log-storage latency vs. log size and PoW difficulty (confirmed writes)",
		Header: []string{"difficulty", "size_bytes", "samples", "p50_ms", "p99_ms", "mean_ms"},
		Notes: []string{
			"each sample: submit one log record (a one-record logbatch) and wait for 1 confirmation",
			"paper §III: latency grows with log size; difficulty is the PoW tuning knob",
		},
	}
	rng := idgen.NewRand(77)
	for _, diff := range p.Difficulties {
		node, id, cleanup, err := singleNode(diff)
		if err != nil {
			return t, err
		}
		sender := blockchain.NewSender(node, id)
		for _, size := range p.Sizes {
			h := metrics.NewHistogram()
			for s := 0; s < p.Samples; s++ {
				call, err := logCall(fmt.Sprintf("e2-%d-%d-%d", diff, size, s), rng.Bytes(size))
				if err != nil {
					cleanup()
					return t, fmt.Errorf("E2 d=%d size=%d: %w", diff, size, err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				start := time.Now()
				receipt, err := sender.SendAndWait(ctx, call, 1)
				cancel()
				if err == nil && !receipt.OK {
					err = fmt.Errorf("tx failed on-chain: %s", receipt.Err)
				}
				if err != nil {
					cleanup()
					return t, fmt.Errorf("E2 d=%d size=%d: %w", diff, size, err)
				}
				h.ObserveDuration(time.Since(start))
			}
			s := h.Snapshot()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", diff), fmt.Sprintf("%d", size), fmt.Sprintf("%d", p.Samples),
				msF(s.P50), msF(s.P99), msF(s.Mean),
			})
		}
		cleanup()
	}
	return t, nil
}

// E3Params parameterise the PoW sweep.
type E3Params struct {
	Difficulties []uint8
	Blocks       int // blocks mined per difficulty
}

// DefaultE3Params sweeps 4–18 bits.
func DefaultE3Params() E3Params {
	return E3Params{Difficulties: []uint8{4, 8, 12, 14, 16, 18}, Blocks: 6}
}

// RunE3 quantifies the PoW latency/integrity tension of §III: block
// production time per difficulty (measured by actually mining) against the
// probability that an attacker rewrites a 6-confirmation log entry.
func RunE3(p E3Params) (Table, error) {
	t := Table{
		ID:    "E3",
		Title: "PoW tunability: block latency vs. rewrite resistance",
		Header: []string{"difficulty", "mean_block_ms", "hashes_expected",
			"P_rewrite(q=0.10,z=6)", "P_rewrite(q=0.30,z=6)", "P_rewrite(q=0.45,z=6)"},
		Notes: []string{
			"block times measured by real mining on this host",
			"rewrite probabilities from the Nakamoto race analysis (attack.RewriteProbability)",
			"paper §III: lightweight PoW keeps latency low but 'does not ensure strong integrity guarantees'",
		},
	}
	for _, diff := range p.Difficulties {
		h := metrics.NewHistogram()
		prev := crypto.Sum([]byte("e3-genesis"))
		for i := 0; i < p.Blocks; i++ {
			b := &blockchain.Block{Header: blockchain.BlockHeader{
				Height:     uint64(i + 1),
				PrevHash:   prev,
				Difficulty: diff,
				Miner:      "e3",
			}}
			start := time.Now()
			if !blockchain.Mine(context.Background(), b, uint64(i)*1e9) {
				return t, fmt.Errorf("E3: mining cancelled")
			}
			h.ObserveDuration(time.Since(start))
			prev = b.Hash()
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", diff),
			msF(h.Snapshot().Mean),
			fmt.Sprintf("%.0f", blockchain.ExpectedAttemptsForDifficulty(diff)),
			fmt.Sprintf("%.2e", attack.RewriteProbability(0.10, 6)),
			fmt.Sprintf("%.2e", attack.RewriteProbability(0.30, 6)),
			fmt.Sprintf("%.2e", attack.RewriteProbability(0.45, 6)),
		})
	}
	return t, nil
}

// E7Params parameterise the analyser sweep.
type E7Params struct {
	RuleCounts []int
	Requests   int
}

// DefaultE7Params sweeps 10–1000 rules.
func DefaultE7Params() E7Params {
	return E7Params{RuleCounts: []int{10, 50, 100, 500, 1000}, Requests: 300}
}

// RunE7 measures the analyser: compile time and expected-decision
// derivation time (the per-request cost of check M5), with PDP evaluation
// for comparison.
func RunE7(p E7Params) (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "analyser cost vs. policy size",
		Header: []string{"rules", "compile_ms", "expected_us_per_req", "pdp_us_per_req"},
		Notes: []string{
			"expected_us_per_req: analyser re-derivation (M5); pdp_us_per_req: the PDP's own evaluation",
		},
	}
	for _, n := range p.RuleCounts {
		gen := xacml.NewGenerator(uint64(n), xacml.GenParams{
			Rules: n, Policies: 1, Attrs: 4, ValuesPerAttr: 4, MaxCondDepth: 2,
		})
		ps := gen.PolicySet("bench", "v1")
		reqs := make([]*xacml.Request, p.Requests)
		for i := range reqs {
			reqs[i] = gen.Request(fmt.Sprintf("r%d", i))
		}

		cStart := time.Now()
		compiled := analysis.Compile(ps)
		compileMs := time.Since(cStart)

		aStart := time.Now()
		for _, r := range reqs {
			_ = compiled.ExpectedSimple(r)
		}
		expectedUs := float64(time.Since(aStart).Microseconds()) / float64(len(reqs))

		pdp := xacml.NewPDP(ps)
		pStart := time.Now()
		for _, r := range reqs {
			if _, err := pdp.Evaluate(r); err != nil {
				return t, err
			}
		}
		pdpUs := float64(time.Since(pStart).Microseconds()) / float64(len(reqs))

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), ms(compileMs),
			fmt.Sprintf("%.1f", expectedUs), fmt.Sprintf("%.1f", pdpUs),
		})
	}
	return t, nil
}
