package main

// nominalSeconds is BENCHMARK.json's run_seconds: the length of the
// measured phase the workload counts were sized for (600 arrivals, 2 400
// completions, 300 000 decisions).
const nominalSeconds = 20

// setupRepeats is how many times an untraced run sets the fleet up; setup_s
// is the median, so one slow start does not decide it.
const setupRepeats = 3

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before a change counts as a
// regression; per-layer metrics have none. Moves states, before any
// measurement, which end-to-end metric on which workload the layer metric
// should move ("∅ w" = predicted not to move on w).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	Def    string
}

// endToEnd are the metrics a user of the fleet sees. Every one applies to
// every workload and is never 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "policy build, drams.Open (first activation included), clients, alert subscription, count-based warm-up; median of three set-ups"},
	{Name: "decide_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "Client.Decide latency over honest requests, from the due time in open loops"},
	{Name: "settle_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "due/issue time to the exchange being complete: matched event received; on acplane, with no monitor, Decide returned"},
	{Name: "exchanges_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "measured completions / measured wall time (decisions on acplane)"},
	{Name: "cpu_ms_per_exchange", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "process user+system CPU over the measured phase / completions, scaled to the reference host speed (host.calib_ms = 24) by the calibration loops run right before and after the phase"},
	{Name: "alloc_kb_per_exchange", Unit: "KiB", Better: "lower", Bound: 0.25,
		Def: "TotalAlloc delta over the measured phase / completions"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25,
		Def: "ru_maxrss at the end of the workload"},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.25,
		Def: "HeapAlloc after a forced GC once every exchange has settled, before Close: retained chain, contract state and monitor tracking for a fixed amount of work"},
}

// perLayer are the metrics of single layers, printed by the traced run. A
// layer that is not on a workload's path reports 0 there (acplane logs
// nothing, so every chain, logger and monitor count is 0 by prediction).
// Counts and waits are read from Deployment.Gatherer() after the traced
// pass; times come from the layer replay.
var perLayer = []metricDef{
	{Name: "e2e.decide_p90_ms", Unit: "ms", Better: "lower",
		Moves: "end-to-end, but informational: on steady the upper tail is CPU queueing on a 2-core host and moved 28-35% between identical runs, so it cannot carry a bound",
		Def:   "as decide_p50_ms, 90th percentile: the highest the sample supports with ten samples beyond it"},
	{Name: "e2e.settle_p90_ms", Unit: "ms", Better: "lower",
		Moves: "end-to-end, informational for the same reason",
		Def:   "as settle_p50_ms, 90th percentile"},
	{Name: "e2e.alert_p50_ms", Unit: "ms", Better: "lower",
		Moves: "end-to-end on steady only (the one workload with tampering), so it cannot sit in the end-to-end set",
		Def:   "due time to request-tampered alert received, over the rewritten exchanges"},
	{Name: "e2e.flip_activate_p50_ms", Unit: "ms", Better: "lower",
		Moves: "end-to-end on policy-churn only",
		Def:   "PublishPolicy call to return (fleet-wide activation observed), ten flips"},

	{Name: "drams.open_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ all",
		Def: "drams.Open of the measured fleet, first policy activation included"},
	{Name: "drams.warmup_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ all",
		Def: "the count-based warm-up of the measured fleet"},
	{Name: "drams.close_ms", Unit: "ms", Better: "lower", Moves: "none (not part of setup_s)",
		Def: "Deployment.Close"},

	{Name: "xacml.eval_miss_us", Unit: "us", Better: "lower",
		Moves: "exchanges_per_s, decide_p50_ms @ acplane; decide_p90_ms @ policy-churn (post-purge misses); ∅ capacity",
		Def:   "PDP.Evaluate on the workload's request sample, decision cache off"},
	{Name: "xacml.eval_hit_us", Unit: "us", Better: "lower", Moves: "exchanges_per_s, decide_p50_ms @ acplane; ∅ capacity",
		Def: "PDP.Evaluate on the same sample, decision cache warm"},
	{Name: "xacml.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "decide_p50_ms @ acplane, policy-churn",
		Def: "decision-cache hits / lookups over the measured phase"},

	{Name: "transport.call_us", Unit: "us", Better: "lower", Moves: "exchanges_per_s @ acplane",
		Def: "echo Endpoint.Call of 256 B between two fresh endpoints, zero latency"},
	{Name: "transport.msgs_per_exchange", Unit: "count", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity",
		Def: "messages handed to the transport / completions"},
	{Name: "transport.bytes_per_exchange", Unit: "B", Better: "lower", Moves: "cpu_ms_per_exchange, alloc_kb_per_exchange @ capacity",
		Def: "payload bytes carried / completions"},

	{Name: "federation.probe_overhead_us", Unit: "us", Better: "lower", Moves: "decide_p50_ms @ steady; ∅ acplane",
		Def: "decide p50 monitored minus unmonitored at zero latency, 200 sequential requests each"},

	{Name: "logger.log_us", Unit: "us", Better: "lower", Moves: "decide_p50_ms @ steady (four observations per decision); ∅ acplane",
		Def: "one probe observation through Agent into LI.Log: digest, seal, enqueue"},
	{Name: "logger.flush_wait_ms", Unit: "ms", Better: "lower", Moves: "settle_p50_ms @ steady; ∅ acplane",
		Def: "p50 of stage li.flush_wait"},
	{Name: "logger.records_per_batch", Unit: "count", Better: "higher", Moves: "exchanges_per_s @ capacity",
		Def: "mean of the LIs' flush-depth histogram: probe records anchored per flush"},
	{Name: "logger.dropped", Unit: "count", Better: "lower", Moves: "must be 0: a dropped record becomes a false message-suppressed alert",
		Def: "LI queue drops + agent log errors"},

	{Name: "crypto.sign_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity", Def: "Identity.Sign over a transaction digest"},
	{Name: "crypto.verify_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity", Def: "PublicIdentity.Verify of that signature"},
	{Name: "crypto.seal_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity; decide_p50_ms @ steady", Def: "EncryptedContext.Seal of one request under K"},
	{Name: "merkle.root16_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity", Def: "merkle.RootOf over a full 16-record flush window"},

	{Name: "blockchain.verify_us_per_tx", Unit: "us", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity; ∅ acplane",
		Def: "TxVerifier.VerifyBatch, cold, up to 256 captured transactions"},
	{Name: "blockchain.encode_us_per_tx", Unit: "us", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity; ∅ acplane", Def: "AppendBlock over the captured non-empty blocks"},
	{Name: "blockchain.decode_us_per_tx", Unit: "us", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity; ∅ acplane", Def: "DecodeBlock over the same blocks"},
	{Name: "blockchain.apply_us_per_tx", Unit: "us", Better: "lower", Moves: "exchanges_per_s, cpu_ms_per_exchange @ capacity; settle_p90_ms @ steady; ∅ acplane",
		Def: "captured best chain replayed into a fresh NewChain with AddBlock"},
	{Name: "blockchain.apply_growth_ratio", Unit: "ratio", Better: "lower", Moves: "exchanges_per_s @ capacity (cost per exchange grows with chain length)",
		Def: "apply µs/tx over the last quarter of the chain / the first quarter"},
	{Name: "blockchain.mine_us_per_block", Unit: "us", Better: "lower", Moves: "cpu_ms_per_exchange @ steady, capacity", Def: "Mine at the fleet's difficulty over captured headers"},
	{Name: "blockchain.blocks_per_exchange", Unit: "count", Better: "lower", Moves: "cpu_ms_per_exchange, alloc_kb_per_exchange @ steady, capacity",
		Def: "blocks the producer added during the measured phase / completions"},
	{Name: "blockchain.tx_per_block", Unit: "count", Better: "higher", Moves: "cpu_ms_per_exchange @ capacity", Def: "transactions / non-empty blocks of the measured phase"},
	{Name: "blockchain.empty_block_share", Unit: "ratio", Better: "lower", Moves: "cpu_ms_per_exchange @ steady", Def: "empty blocks / blocks of the measured phase"},
	{Name: "blockchain.mined_useful_ratio", Unit: "ratio", Better: "higher", Moves: "cpu_ms_per_exchange @ steady, capacity (wasted mining)",
		Def: "blocks mined / (mined + mining rounds cancelled)"},
	{Name: "blockchain.range_pulls", Unit: "count", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity (sync work)", Def: "catch-up transport calls, all nodes"},
	{Name: "blockchain.orphans_resolved", Unit: "count", Better: "lower", Moves: "cpu_ms_per_exchange @ capacity (sync work)",
		Def: "orphan blocks resolved by ancestor fetch, all nodes (the chain exports no reorg counter)"},
	{Name: "blockchain.anchor_ms", Unit: "ms", Better: "lower", Moves: "settle_p50_ms @ steady", Def: "p50 of stage chain.anchor"},

	{Name: "core.contract_exec_us_per_tx", Unit: "us", Better: "lower", Moves: "exchanges_per_s @ capacity; ∅ acplane",
		Def: "contract.Engine.Execute over the captured calls in chain order on a fresh state"},
	{Name: "core.onblock_us", Unit: "us", Better: "lower", Moves: "exchanges_per_s, cpu_ms_per_exchange @ capacity", Def: "Engine.OnBlock on the end-of-run state"},
	{Name: "core.state_keys_end", Unit: "count", Better: "lower", Moves: "heap_live_mb @ capacity", Def: "contract state keys after the replay"},
	{Name: "core.analyser_verify_ms", Unit: "ms", Better: "lower", Moves: "settle_p50_ms @ steady", Def: "p50 of stage analyser.verify"},
	{Name: "core.analyser_failures", Unit: "count", Better: "lower", Moves: "must be 0", Def: "log records the analyser could not verify"},
	{Name: "core.monitor_match_ms", Unit: "ms", Better: "lower", Moves: "settle_p50_ms @ steady, capacity", Def: "p50 of stage monitor.match"},
	{Name: "core.monitor_alert_ms", Unit: "ms", Better: "lower", Moves: "e2e.alert_p50_ms @ steady", Def: "p50 of stage monitor.alert"},
	{Name: "core.monitor_stream_dropped", Unit: "count", Better: "lower", Moves: "must be 0: a dropped event is an exchange the driver never sees settle", Def: "subscriber events dropped at a full buffer"},
	{Name: "core.monitor_tracked_end", Unit: "count", Better: "lower", Moves: "heap_live_mb @ capacity", Def: "submission-latency entries still tracked after drain"},

	{Name: "pap.activations", Unit: "count", Better: "lower", Moves: "e2e.flip_activate_p50_ms @ policy-churn; ∅ steady (0)", Def: "policy versions activated during the measured phase"},
	{Name: "pap.watcher_resyncs", Unit: "count", Better: "lower", Moves: "e2e.flip_activate_p50_ms @ policy-churn", Def: "watcher chain-state reconciliations"},
	{Name: "pap.rejections", Unit: "count", Better: "lower", Moves: "must be 0", Def: "policy versions rejected locally"},

	{Name: "loadgen.late_p90_ms", Unit: "ms", Better: "lower", Moves: "instrument health: how late the open-loop generator fired (0 in closed loops)", Def: "p90 of issue time minus due time"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower", Moves: "instrument health: a slow host, not a slow program", Def: "fixed SHA-256 + ed25519 loop, mean of before and after the workload"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "instrument health", Def: "decide_p50_ms of the traced pass over the untraced pass, minus one"},
	{Name: "residual.decide_us", Unit: "us", Better: "lower", Moves: "a large one means a stage on the decide path has no figure yet",
		Def: "decide_p50 − (2 × net latency + xacml eval at the measured hit ratio + 4 × logger.log_us when monitored + transport.call_us)"},
	{Name: "residual.match_ms", Unit: "ms", Better: "lower", Moves: "a large one means a stage on the match path has no span yet",
		Def: "settle_p50 − (decide_p50 + logger.flush_wait_ms + blockchain.anchor_ms + core.analyser_verify_ms)"},
}
