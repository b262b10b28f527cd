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
	"drams/internal/hybrid"
	"drams/internal/idgen"
	"drams/internal/metrics"
	"drams/internal/netsim"
	"drams/internal/xacml"
)

// singleNode spins up one mining chain node with the DRAMS contracts and an
// allowlisted writer identity.
func singleNode(difficulty uint8, emptyInterval time.Duration) (*blockchain.Node, *crypto.Identity, func(), error) {
	var seed [32]byte
	seed[0] = 0x33
	id := crypto.NewIdentityFromSeed("bench-writer", seed)
	reg := contract.NewRegistry()
	reg.MustRegister(core.NewLogMatchContract(core.MatchConfig{TimeoutBlocks: 1 << 20}))
	reg.MustRegister(&contract.AnchorContract{ContractName: "anchor"})
	net := netsim.New(netsim.Config{Seed: 5})
	node, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "bench-node",
		Chain: blockchain.Config{
			Difficulty: difficulty,
			Identities: []crypto.PublicIdentity{id.Public()},
			Registry:   reg,
		},
		Network:            net,
		Mine:               true,
		EmptyBlockInterval: emptyInterval,
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
			"each sample: submit one log record and wait for 1 confirmation",
			"paper §III: latency grows with log size; difficulty is the PoW tuning knob",
		},
	}
	rng := idgen.NewRand(77)
	for _, diff := range p.Difficulties {
		node, id, cleanup, err := singleNode(diff, 0)
		if err != nil {
			return t, err
		}
		sender := blockchain.NewSender(node, id)
		for _, size := range p.Sizes {
			h := metrics.NewHistogram()
			for s := 0; s < p.Samples; s++ {
				rec := core.LogRecord{
					Kind:      core.KindPEPRequest,
					ReqID:     fmt.Sprintf("e2-%d-%d-%d", diff, size, s),
					Tenant:    "bench",
					Agent:     "bench-agent",
					ReqDigest: crypto.Sum([]byte{byte(s)}),
					Payload:   rng.Bytes(size),
				}
				call := contract.Call{Contract: core.ContractName, Method: core.MethodLog, Args: rec.Encode()}
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

// E4Params parameterise the hybrid-store comparison.
type E4Params struct {
	Writes     int
	BatchSizes []int
	ValueSize  int
}

// DefaultE4Params writes 250 entries of 256 bytes; 250 is deliberately not
// a multiple of the batch sizes so the unprotected tail window is visible.
func DefaultE4Params() E4Params {
	return E4Params{Writes: 250, BatchSizes: []int{16, 64, 256}, ValueSize: 256}
}

// RunE4 compares pure-database, hybrid (several anchoring batch sizes) and
// pure-chain storage: write latency versus tamper detectability — the
// trade-off the paper's §III attributes to the hybrid design of ref [9].
func RunE4(p E4Params) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "hybrid DB+blockchain trade-off: write latency vs. integrity",
		Header: []string{"mode", "writes", "p50_ms", "p99_ms", "throughput_w_s", "tamper_detected", "unprotected_at_tamper"},
		Notes: []string{
			"pure-db: plain in-memory database, no anchoring — tampering is silent",
			"hybrid-B: Merkle root of every B writes anchored on-chain; audit detects tampering",
			"pure-chain: every write individually anchored and confirmed before returning",
			"unprotected_at_tamper: entries whose anchor is not yet on-chain when the attacker",
			"strikes — the §III window: they stay auditable only while the store process survives",
		},
	}
	rng := idgen.NewRand(99)
	value := func(i int) []byte { return rng.Bytes(p.ValueSize) }

	// Pure DB.
	{
		db := make(map[string][]byte)
		h := metrics.NewHistogram()
		start := time.Now()
		for i := 0; i < p.Writes; i++ {
			w := time.Now()
			db[fmt.Sprintf("key-%d", i)] = value(i)
			h.ObserveDuration(time.Since(w))
		}
		elapsed := time.Since(start)
		db["key-0"] = []byte("evil") // the attacker's rewrite: nothing records it
		s := h.Snapshot()
		t.Rows = append(t.Rows, []string{"pure-db", fmt.Sprintf("%d", p.Writes),
			msF(s.P50), msF(s.P99), rate(p.Writes, elapsed), "no", fmt.Sprintf("%d", p.Writes)})
	}

	runHybrid := func(label string, batch int, confirm uint64) error {
		node, id, cleanup, err := singleNode(8, 0)
		if err != nil {
			return err
		}
		defer cleanup()
		hs, err := hybrid.Open(hybrid.Config{
			Stream:            "e4",
			BatchSize:         batch,
			Sender:            blockchain.NewSender(node, id),
			Node:              node,
			WaitConfirmations: confirm,
		})
		if err != nil {
			return err
		}
		h := metrics.NewHistogram()
		start := time.Now()
		ctx := context.Background()
		for i := 0; i < p.Writes; i++ {
			w := time.Now()
			if err := hs.Put(ctx, fmt.Sprintf("key-%d", i), value(i)); err != nil {
				return err
			}
			h.ObserveDuration(time.Since(w))
		}
		elapsed := time.Since(start)
		// The attacker strikes now: entries of the current (unanchored)
		// batch are still in the unprotected window — tampering the first
		// entry of batch 1 is detectable only if batch 1 was anchored.
		pendingAtTamper := hs.Stats().PendingEntries
		hs.TamperLogEntry(1, 0, []byte("evil"))
		// Normal operation continues: the tail batch is flushed, and the
		// audit waits until all submitted anchors are on-chain.
		waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		_ = hs.Flush(waitCtx)
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			var anchored int
			node.Chain().ReadState("anchor", func(st contract.StateDB) {
				anchored = len(contract.ListAnchors(st, "e4"))
			})
			if int64(anchored) >= hs.Stats().AnchorsSubmitted {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		rep := hs.Audit()
		detected := "no"
		if !rep.Clean() {
			detected = "yes"
		}
		s := h.Snapshot()
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%d", p.Writes),
			msF(s.P50), msF(s.P99), rate(p.Writes, elapsed), detected, fmt.Sprintf("%d", pendingAtTamper)})
		return nil
	}

	for _, b := range p.BatchSizes {
		if err := runHybrid(fmt.Sprintf("hybrid-%d", b), b, 0); err != nil {
			return t, fmt.Errorf("E4 hybrid-%d: %w", b, err)
		}
	}
	if err := runHybrid("pure-chain", 1, 1); err != nil {
		return t, fmt.Errorf("E4 pure-chain: %w", err)
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

// RunE7 measures the analyser: compile time, expected-decision derivation
// time (the per-request cost of check M5), PDP evaluation for comparison,
// and a change-impact analysis — the ref [8] machinery DRAMS builds on.
func RunE7(p E7Params) (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "analyser cost vs. policy size",
		Header: []string{"rules", "compile_ms", "expected_us_per_req", "pdp_us_per_req", "change_impact_ms", "impact_requests"},
		Notes: []string{
			"expected_us_per_req: analyser re-derivation (M5); pdp_us_per_req: the PDP's own evaluation",
			"change_impact: v1 vs v1+one widened rule over the abstract domain (≤2000 requests)",
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

		v2 := ps.Clone()
		v2.Version = "v2"
		v2.Items[0].Policy.Rules = append([]*xacml.Rule{{
			ID: "widen", Effect: xacml.EffectPermit,
			Target: xacml.TargetMatching(xacml.CatSubject, "attr0", xacml.String("v0")),
		}}, v2.Items[0].Policy.Rules...)
		iStart := time.Now()
		rep := analysis.ChangeImpact(ps, v2, analysis.EnumParams{MaxRequests: 2000, Seed: 3})
		impactMs := time.Since(iStart)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), ms(compileMs),
			fmt.Sprintf("%.1f", expectedUs), fmt.Sprintf("%.1f", pdpUs),
			ms(impactMs), fmt.Sprintf("%d", rep.Checked),
		})
	}
	return t, nil
}
