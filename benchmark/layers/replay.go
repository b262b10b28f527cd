// Package layers is the benchmark's layer replay: it builds each module of
// the fleet alone and times calls into its public functions on inputs
// captured from a finished run (the producer's best chain, the workload's
// policy and a sample of its requests). It is the only part of the
// benchmark that imports the modules' internals, so a refactor of an
// internal API can change these per-layer numbers but never the end-to-end
// ones, which the driver takes through the public drams surface.
package layers

import (
	"context"
	"fmt"
	"sort"
	"time"

	"drams"
	"drams/internal/blockchain"
	"drams/internal/clock"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/logger"
	"drams/internal/merkle"
	"drams/internal/xacml"
)

// minTxs is the fewest captured transactions a chain or contract timing is
// reported from; below it (acplane logs nothing on-chain) the layer is not
// on the workload's path and its metrics are left out.
const minTxs = 64

// Inputs is what the driver hands over from the run it just finished.
type Inputs struct {
	// Seed and TimeoutBlocks are the deployment's, so the replay derives
	// the same identities, keys and contract configuration.
	Seed          uint64
	TimeoutBlocks uint64
	Monitored     bool
	Policy        *xacml.PolicySet
	// Requests is a sample of the workload's request stream.
	Requests []*xacml.Request
	// Span brackets one replay step so that it shows in the trace file.
	Span func(name string) (end func())
}

// Replay times every layer on the captured inputs and returns the metrics
// by name. dep is the settled, still-running fleet of the traced run.
func Replay(dep *drams.Deployment, in Inputs) (map[string]float64, error) {
	out := make(map[string]float64)
	step := func(name string, fn func() error) error {
		end := in.Span("replay:" + name)
		defer end()
		if err := fn(); err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		return nil
	}

	infra, err := dep.Topology().InfrastructureTenant()
	if err != nil {
		return nil, err
	}
	node, err := dep.Node(infra.Cloud)
	if err != nil {
		return nil, err
	}
	var blocks []*blockchain.Block
	height := node.Chain().Height()
	for h := uint64(1); h <= height; h++ {
		if b, ok := node.Chain().BlockByHeight(h); ok {
			blocks = append(blocks, b)
		}
	}
	var txs []blockchain.Transaction
	for _, b := range blocks {
		txs = append(txs, b.Txs...)
	}
	material := func() drams.ChainMaterial {
		var tenants []string
		for _, t := range dep.Topology().Tenants {
			tenants = append(tenants, t.Name)
		}
		return drams.NewChainMaterial(in.Seed, tenants, drams.ChainParams{
			TimeoutBlocks: in.TimeoutBlocks, RequireVerdict: in.Monitored,
		})
	}

	if err := step("xacml", func() error { return replayXACML(out, in) }); err != nil {
		return nil, err
	}
	if err := step("crypto", func() error { return replayCrypto(out, material(), in, txs) }); err != nil {
		return nil, err
	}
	if err := step("edge", func() error { return replayEdge(out, material(), in) }); err != nil {
		return nil, err
	}
	if len(txs) < minTxs {
		return out, nil
	}
	if err := step("blockchain", func() error { return replayChain(out, material(), blocks, txs) }); err != nil {
		return nil, err
	}
	if err := step("core", func() error { return replayContract(out, material(), blocks) }); err != nil {
		return nil, err
	}
	return out, nil
}

// perCall times n calls of fn and returns microseconds per call.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(n)
}

// replayXACML times PDP.Evaluate on the workload's request sample with the
// decision cache off (every call evaluates) and warm (every call hits).
func replayXACML(out map[string]float64, in Inputs) error {
	if len(in.Requests) == 0 {
		return nil
	}
	var evalErr error
	eval := func(pdp *xacml.PDP) func(int) {
		return func(i int) {
			if _, err := pdp.Evaluate(in.Requests[i%len(in.Requests)]); err != nil {
				evalErr = err
			}
		}
	}
	const calls = 4000
	out["xacml.eval_miss_us"] = perCall(calls, eval(xacml.NewPDP(in.Policy)))
	cached := xacml.NewCachedPDP(in.Policy, 2*len(in.Requests))
	perCall(len(in.Requests), eval(cached)) // fill
	out["xacml.eval_hit_us"] = perCall(calls, eval(cached))
	return evalErr
}

// replayCrypto times the primitives every logged exchange pays for: an
// ed25519 signature and its verification over a transaction-sized message,
// sealing one exchange context under the shared LI key, and the Merkle
// root of a full 16-record flush window.
func replayCrypto(out map[string]float64, m drams.ChainMaterial, in Inputs, txs []blockchain.Transaction) error {
	id := m.AnalyserID
	msg := crypto.Sum([]byte("benchmark")).Bytes()
	if len(txs) > 0 {
		msg = txs[len(txs)/2].ID().Bytes()
	}
	var sig []byte
	out["crypto.sign_us"] = perCall(500, func(int) { sig = id.Sign(msg) })
	pub := id.Public()
	ok := true
	out["crypto.verify_us"] = perCall(500, func(int) { ok = ok && pub.Verify(msg, sig) })
	if !ok {
		return fmt.Errorf("signature did not verify")
	}
	if len(in.Requests) > 0 {
		cipher, err := crypto.NewCipher(m.Key)
		if err != nil {
			return err
		}
		var sealErr error
		out["crypto.seal_us"] = perCall(2000, func(i int) {
			r := in.Requests[i%len(in.Requests)]
			if _, err := (core.EncryptedContext{Request: r}).Seal(cipher, r.ID); err != nil {
				sealErr = err
			}
		})
		if sealErr != nil {
			return sealErr
		}
	}
	leaves := make([][]byte, 16)
	for i := range leaves {
		leaves[i] = crypto.Sum([]byte{byte(i)}).Bytes()
	}
	out["merkle.root16_us"] = perCall(2000, func(int) { merkle.RootOf(leaves) })
	return nil
}

// replayEdge measures the tenant-edge layers on a fleet of their own with
// zero network latency, so the figures are processor time: one transport
// round trip, what the probes add to a decision, and what one probe
// observation costs the calling PEP or PDP (digest, seal, enqueue).
func replayEdge(out map[string]float64, m drams.ChainMaterial, in Inputs) error {
	ctx := context.Background()
	policy := xacml.StandardPolicy("v1")
	request := func() *xacml.Request {
		return xacml.NewRequest("").
			Add(xacml.CatSubject, "role", xacml.String("doctor")).
			Add(xacml.CatAction, "op", xacml.String("read")).
			Add(xacml.CatResource, "type", xacml.String("record"))
	}
	decideP50 := func(monitored bool) (float64, *drams.Deployment, error) {
		dep, err := drams.Open(policy, drams.WithSeed(in.Seed), drams.WithMonitoring(monitored),
			drams.WithTimeoutBlocks(in.TimeoutBlocks))
		if err != nil {
			return 0, nil, err
		}
		client, err := dep.Client(dep.Topology().EdgeTenants()[0].Name)
		if err != nil {
			dep.Close()
			return 0, nil, err
		}
		const warm, calls = 50, 200
		var lat []float64
		for i := 0; i < warm+calls; i++ {
			start := time.Now()
			if _, err := client.Decide(ctx, request()); err != nil {
				dep.Close()
				return 0, nil, err
			}
			if i >= warm {
				lat = append(lat, float64(time.Since(start))/float64(time.Microsecond))
			}
		}
		sort.Float64s(lat)
		return lat[len(lat)/2], dep, nil
	}
	with, monitoredDep, err := decideP50(true)
	if err != nil {
		return err
	}
	monitoredDep.Close()
	without, plain, err := decideP50(false)
	if err != nil {
		return err
	}
	defer plain.Close()
	out["federation.probe_overhead_us"] = with - without

	// One echo round trip of 256 bytes between two fresh endpoints.
	tr := plain.Transport
	a, err := tr.Register("bench-echo-a")
	if err != nil {
		return err
	}
	defer tr.Unregister("bench-echo-a")
	b, err := tr.Register("bench-echo-b")
	if err != nil {
		return err
	}
	defer tr.Unregister("bench-echo-b")
	b.OnCall("echo", func(_ string, payload []byte) ([]byte, error) { return payload, nil })
	payload := make([]byte, 256)
	var callErr error
	out["transport.call_us"] = perCall(2000, func(int) {
		if _, err := a.Call(ctx, "bench-echo-b", "echo", payload); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		return callErr
	}

	// One probe observation through an agent into a Logging Interface whose
	// workers are not started: the cost the decision path pays, without the
	// background flush. The queue holds 1 024 records, so fewer are logged.
	if len(in.Requests) == 0 {
		return nil
	}
	const tenant = "tenant-1"
	liNode, err := blockchain.NewNode(blockchain.NodeConfig{
		Name: "bench-li-node", Chain: m.Chain, Network: tr, Peers: []string{"bench-li-node"},
	})
	if err != nil {
		return err
	}
	defer tr.Unregister("bench-li-node")
	li, err := logger.NewLI(logger.LIConfig{
		Name: "li@" + tenant, Tenant: tenant, Node: liNode,
		Identity: m.LIIdentities[tenant], Key: m.Key, Mode: logger.SubmitAsync,
	})
	if err != nil {
		return err
	}
	agent := logger.NewAgent("agent@"+tenant, tenant, li, clock.System{})
	out["logger.log_us"] = perCall(1000, func(i int) {
		agent.PEPRequestSent(in.Requests[i%len(in.Requests)])
	})
	if errs := agent.Stats().Errors; errs != 0 {
		return fmt.Errorf("%d of 1000 probe observations failed to log", errs)
	}
	return nil
}

// replayChain times the chain layer on the captured best chain: cold batch
// signature verification, the block codec, proof-of-work, and a full replay
// into a fresh chain whose cost per transaction is compared between the
// first and the last quarter (state growth).
func replayChain(out map[string]float64, m drams.ChainMaterial, blocks []*blockchain.Block, txs []blockchain.Transaction) error {
	batch := txs[:min(len(txs), 256)]
	verifier := blockchain.NewTxVerifier(blockchain.NewIdentityRegistry(m.Chain.Identities...), blockchain.VerifierConfig{})
	start := time.Now()
	for _, err := range verifier.VerifyBatch(batch) {
		if err != nil {
			return err
		}
	}
	out["blockchain.verify_us_per_tx"] = usPer(time.Since(start), len(batch))

	var full []*blockchain.Block
	for _, b := range blocks {
		if len(b.Txs) > 0 {
			full = append(full, b)
		}
	}
	var buf []byte
	encoded := make([][]byte, len(full))
	start = time.Now()
	for i, b := range full {
		var err error
		if buf, err = blockchain.AppendBlock(buf[:0], b); err != nil {
			return err
		}
		encoded[i] = append([]byte(nil), buf...)
	}
	out["blockchain.encode_us_per_tx"] = usPer(time.Since(start), len(txs))
	start = time.Now()
	for _, data := range encoded {
		if _, err := blockchain.DecodeBlock(data); err != nil {
			return err
		}
	}
	out["blockchain.decode_us_per_tx"] = usPer(time.Since(start), len(txs))

	mined := blocks[:min(len(blocks), 200)]
	start = time.Now()
	for i, b := range mined {
		again := *b
		if !blockchain.Mine(context.Background(), &again, uint64(i)<<32) {
			return fmt.Errorf("mining cancelled")
		}
	}
	out["blockchain.mine_us_per_block"] = usPer(time.Since(start), len(mined))

	chain := blockchain.NewChain(m.Chain)
	var first, last time.Duration
	var firstTxs, lastTxs, seen int
	var total time.Duration
	for _, b := range blocks {
		start := time.Now()
		if err := chain.AddBlock(b); err != nil {
			return fmt.Errorf("block %d: %w", b.Header.Height, err)
		}
		took := time.Since(start)
		if len(b.Txs) == 0 {
			continue
		}
		total += took
		switch {
		case seen < len(txs)/4:
			first, firstTxs = first+took, firstTxs+len(b.Txs)
		case seen >= len(txs)-len(txs)/4:
			last, lastTxs = last+took, lastTxs+len(b.Txs)
		}
		seen += len(b.Txs)
	}
	out["blockchain.apply_us_per_tx"] = usPer(total, len(txs))
	if firstTxs > 0 && lastTxs > 0 {
		out["blockchain.apply_growth_ratio"] = usPer(last, lastTxs) / usPer(first, firstTxs)
	}
	return nil
}

// replayContract executes the captured contract calls, in chain order, on a
// fresh state through the contract engine alone (no signatures, nonces or
// fork choice), then times the block hook on the end-of-run state.
func replayContract(out map[string]float64, m drams.ChainMaterial, blocks []*blockchain.Block) error {
	engine := contract.NewEngine(m.Chain.Registry)
	state := contract.NewState()
	var exec time.Duration
	var calls int
	for _, b := range blocks {
		blockTime := b.Header.Time()
		for i := range b.Txs {
			tx := &b.Txs[i]
			cc := contract.CallCtx{Height: b.Header.Height, BlockTime: blockTime, TxID: tx.ID(), Caller: tx.From}
			start := time.Now()
			// A call the contract rejects is still a transaction the
			// chain carried and paid for; its error is part of the replay.
			_, _ = engine.Execute(cc, state, tx.Call)
			exec += time.Since(start)
			calls++
		}
		engine.OnBlock(b.Header.Height, blockTime, state)
	}
	out["core.contract_exec_us_per_tx"] = usPer(exec, calls)
	end := blocks[len(blocks)-1].Header
	out["core.onblock_us"] = perCall(50, func(i int) {
		engine.OnBlock(end.Height+1+uint64(i), end.Time(), state)
	})
	out["core.state_keys_end"] = float64(state.Len())
	return nil
}

func usPer(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}
