package drams

import (
	"fmt"
	"net/http"

	"drams/internal/blockchain"
	"drams/internal/core"
	"drams/internal/federation"
	"drams/internal/logger"
	"drams/internal/metrics"
	"drams/internal/obs"
	"drams/internal/pap"
	"drams/internal/trace"
	"drams/internal/transport"
)

// TraceSpan is one recorded stage of a request's end-to-end timeline.
type TraceSpan = trace.Span

// readyChainLag is how many blocks a node may trail the best height its
// peers have advertised and still count as caught up: one block can always
// be in flight, and one more may have been mined while the head probe was
// travelling.
const readyChainLag = 2

// initObservability builds the deployment-wide metrics registry, gatherer,
// tracer and health checks. Always on: an idle registry costs nothing until
// something scrapes it.
func (d *Deployment) initObservability() {
	d.registry = metrics.NewRegistry()
	d.gatherer = obs.NewGatherer(d.registry)
	d.tracer = trace.New(d.registry, trace.DefaultCapacity)
	d.health = obs.NewHealth()
}

// Registry returns the deployment-wide metrics registry.
func (d *Deployment) Registry() *metrics.Registry { return d.registry }

// Gatherer returns the deployment's metric gatherer — the snapshot source
// behind MetricsHandler.
func (d *Deployment) Gatherer() *obs.Gatherer { return d.gatherer }

// Health returns the deployment's readiness checks (chain catch-up, policy
// watcher freshness). Callers may add their own checks before serving.
func (d *Deployment) Health() *obs.Health { return d.health }

// Trace reconstructs the recorded end-to-end timeline of one request,
// sorted by stage start time: PEP decide, PDP evaluation, LI flush wait,
// chain anchoring, analyser verification, monitor match/alert. The trace
// is keyed by the request's correlation ID (requests without one get a
// minted trace ID, returned in Request.TraceID). Nil when unknown or
// already evicted.
func (d *Deployment) Trace(reqID string) []TraceSpan { return d.tracer.Trace(reqID) }

// MetricsHandler serves /metrics (Prometheus text exposition), /healthz and
// /readyz for this deployment. The handler snapshots before writing, so a
// stalled scraper never holds a lock the decision path could contend on.
func (d *Deployment) MetricsHandler() http.Handler { return obs.Handler(d.gatherer, d.health) }

// wireObservability registers every component's counters under the
// drams_* namespace, attaches the span recorder to each pipeline stage,
// and installs the deployment's readiness checks. Called once from open
// after all components exist.
func (d *Deployment) wireObservability() {
	g := d.gatherer

	// Tracer attachment (monitoring plane components are nil-checked:
	// MonitorOff deployments still trace the PEP/PDP hot path).
	for _, pep := range d.peps {
		pep.SetTracer(d.tracer)
	}
	if d.pdpService != nil {
		d.pdpService.SetTracer(d.tracer)
	}
	for _, li := range d.LIs {
		li.SetTracer(d.tracer)
	}
	if d.Monitor != nil {
		d.Monitor.SetTracer(d.tracer)
	}
	if d.Analyser != nil {
		d.Analyser.SetTracer(d.tracer)
	}

	for name, node := range d.nodes {
		g.Register(nodeCollector("node@"+name, node))
	}
	g.Register(transportCollector(d.Transport))
	for name, pep := range d.peps {
		g.Register(pepCollector(name, pep))
	}
	if d.pdpService != nil {
		g.Register(pdpCollector(d.pdpService))
	}
	for name, li := range d.LIs {
		g.Register(liCollector(name, li))
	}
	for name, agent := range d.Agents {
		g.Register(agentCollector(name, agent))
	}
	g.Register(watcherCollector(d.watcher))
	if d.Monitor != nil {
		g.Register(monitorCollector(d.Monitor))
	}
	if d.Analyser != nil {
		g.Register(analyserCollector(d.Analyser))
	}

	// Readiness: the member is ready to serve decisions when its node has
	// caught up with the federation chain and the policy watcher has
	// applied the chain's active policy version.
	d.health.AddReady("chain", chainReady(d.home))
	d.health.AddReady("policy-watcher", watcherReady(d.home, d.watcher))
}

// chainReady returns a readiness check reporting whether the node's chain
// is within readyChainLag blocks of the best height any peer has advertised
// (vacuously ready before first peer contact).
func chainReady(node *blockchain.Node) func() error {
	return func() error {
		if node.CaughtUp(readyChainLag) {
			return nil
		}
		return fmt.Errorf("syncing: height %d trails best seen %d by more than %d blocks",
			node.Chain().Height(), node.BestSeenHeight(), readyChainLag)
	}
}

// watcherReady returns a readiness check reporting whether the policy
// watcher has applied the chain's active policy version — a stale watcher
// means local decisions may be made under a superseded policy.
func watcherReady(node *blockchain.Node, w *pap.Watcher) func() error {
	return func() error {
		active := activePolicyVersion(node)
		if active == "" {
			// No policy anchored yet: nothing to be stale against.
			return nil
		}
		if applied := w.Stats().Version; applied != active {
			return fmt.Errorf("stale: chain active policy %q, watcher applied %q", active, applied)
		}
		return nil
	}
}

// nodeCollector samples one chain node's counters as drams_node_* series
// labelled with the member name.
func nodeCollector(member string, node *blockchain.Node) obs.Collector {
	l := fmt.Sprintf("{member=%q}", member)
	return func() []metrics.Sample {
		s := node.Stats()
		return []metrics.Sample{
			obs.C("drams_node_blocks_mined_total"+l, "Blocks mined by this node.", s.BlocksMined),
			obs.C("drams_node_blocks_accepted_total"+l, "Blocks accepted onto the best chain.", s.BlocksAccepted),
			obs.C("drams_node_blocks_rejected_total"+l, "Blocks rejected during validation.", s.BlocksRejected),
			obs.C("drams_node_txs_submitted_total"+l, "Transactions admitted to the mempool.", s.TxsSubmitted),
			obs.C("drams_node_events_dropped_total"+l, "Best-chain blocks a follower skipped because it fell more than E+1 blocks behind.", s.EventsDropped),
			obs.C("drams_node_mining_cancelled_total"+l, "Mining rounds abandoned because the head moved.", s.MiningCancelled),
			obs.C("drams_node_orphans_resolved_total"+l, "Orphan blocks resolved by ancestor fetch.", s.OrphansResolved),
			obs.C("drams_node_import_dropped_total"+l, "Gossiped block frames dropped by the import queue.", s.ImportDropped),
			obs.C("drams_node_blocks_persisted_total"+l, "Blocks written to the durable chain store.", s.BlocksPersisted),
			obs.C("drams_node_persist_errors_total"+l, "Durable store write failures.", s.PersistErrors),
			obs.C("drams_node_blocks_reloaded_total"+l, "Persisted blocks replayed at construction.", s.BlocksReloaded),
			obs.C("drams_node_reload_dropped_total"+l, "Persisted blocks discarded by reload validation.", s.ReloadDropped),
			obs.C("drams_node_sync_calls_total"+l, "Catch-up protocol transport calls (bc.head and bc.getrange).", s.SyncCalls),
			obs.C("drams_node_sync_blocks_total"+l, "Blocks obtained through catch-up sync.", s.SyncBlocks),
			obs.C("drams_node_tx_expired_total"+l, "Pending transactions evicted because the chain passed their expiry height.", s.TxExpired),
			obs.C("drams_node_reorgs_total"+l, "Head changes that undid best-chain blocks to a fork point.", s.Reorgs),
			obs.C("drams_node_reorg_blocks_undone_total"+l, "Best-chain blocks undone by reorgs.", s.ReorgBlocksUndone),
			obs.C("drams_node_reorg_blocks_applied_total"+l, "Blocks applied by reorgs, at most each reorg's depth plus one.", s.ReorgBlocksApplied),
			obs.C("drams_node_reorgs_refused_total"+l, "Longer branches refused because their fork point is deeper than E+1 blocks below the head.", s.ReorgsRefused),
			obs.C("drams_node_verifier_verified_total"+l, "Signature verifications performed; a member's own transactions are not verified.", s.Verifier.Verified),
			obs.C("drams_node_verifier_cache_hits_total"+l, "Verifications skipped via the verified-tx cache.", s.Verifier.CacheHits),
			obs.C("drams_node_verifier_cache_misses_total"+l, "Verified-tx cache lookups that fell through.", s.Verifier.CacheMisses),
			obs.C("drams_node_verifier_batches_total"+l, "Batch verification calls and block validations.", s.Verifier.Batches),
			obs.C("drams_node_verifier_failures_total"+l, "Transactions that failed signature verification.", s.Verifier.Failures),
			obs.G("drams_node_mempool_len"+l, "Pending transactions in the mempool.", int64(s.MempoolLen)),
			obs.G("drams_node_seen_cache_len"+l, "Entries in the gossip duplicate-suppression cache.", int64(s.SeenCacheLen)),
			obs.G("drams_node_chain_height"+l, "Height of the node's best chain.", int64(node.Chain().Height())),
			obs.G("drams_node_best_seen_height"+l, "Best chain height advertised by any peer.", int64(node.BestSeenHeight())),
		}
	}
}

// transportCollector samples the wire backend's counters.
func transportCollector(tr transport.Transport) obs.Collector {
	return func() []metrics.Sample {
		s := tr.Stats()
		return []metrics.Sample{
			obs.C("drams_transport_sent_total", "Messages handed to the transport.", s.Sent),
			obs.C("drams_transport_delivered_total", "Messages delivered to an endpoint.", s.Delivered),
			obs.C("drams_transport_dropped_total", "Messages dropped in transit.", s.Dropped),
			obs.C("drams_transport_bytes_total", "Payload bytes carried.", s.Bytes),
			obs.C("drams_transport_reconnects_total", "Peer links re-established after loss.", s.Reconnects),
		}
	}
}

// pepCollector samples one tenant's PEP counters.
func pepCollector(tenant string, pep *federation.PEPService) obs.Collector {
	l := fmt.Sprintf("{tenant=%q}", tenant)
	return func() []metrics.Sample {
		s := pep.Stats()
		return []metrics.Sample{
			obs.C("drams_pep_requests_total"+l, "Access requests entering the PEP.", s.Requests),
			obs.C("drams_pep_permits_total"+l, "Requests enforced as Permit.", s.Permits),
			obs.C("drams_pep_denies_total"+l, "Requests enforced as not-Permit.", s.Denies),
			obs.C("drams_pep_failures_total"+l, "Requests that failed before enforcement.", s.Failures),
		}
	}
}

// pdpCollector samples the PDP service counters.
func pdpCollector(svc *federation.PDPService) obs.Collector {
	return func() []metrics.Sample {
		s := svc.Stats()
		return []metrics.Sample{
			obs.C("drams_pdp_evaluations_total", "Requests evaluated by the PDP service.", s.Evaluations),
			obs.C("drams_pdp_failures_total", "PDP service evaluation failures.", s.Failures),
		}
	}
}

// liCollector samples one tenant's Logging Interface counters, including
// the flush-depth histogram of the batch-anchoring pipeline.
func liCollector(tenant string, li *logger.LI) obs.Collector {
	l := fmt.Sprintf("{tenant=%q}", tenant)
	return func() []metrics.Sample {
		s := li.Stats()
		return []metrics.Sample{
			obs.C("drams_li_submitted_total"+l, "Probe records submitted on-chain.", s.Submitted),
			obs.C("drams_li_failed_total"+l, "Probe records whose submission failed.", s.Failed),
			obs.C("drams_li_dropped_total"+l, "Probe records dropped at a full queue.", s.Dropped),
			obs.C("drams_li_batches_total"+l, "LI transactions submitted; each is a Merkle-anchored batch.", s.BatchesSubmitted),
			obs.G("drams_li_queue_len"+l, "Records waiting in the LI queue.", int64(s.QueueLen)),
			obs.H("drams_li_flush_depth"+l, "Records anchored per batch transaction (1 = a lone record).", li.FlushDepth()),
		}
	}
}

// agentCollector samples one tenant's probing-agent counters.
func agentCollector(tenant string, agent *logger.Agent) obs.Collector {
	l := fmt.Sprintf("{tenant=%q}", tenant)
	return func() []metrics.Sample {
		s := agent.Stats()
		return []metrics.Sample{
			obs.C("drams_agent_observed_total"+l, "Exchanges observed by the probing agent.", s.Observed),
			obs.C("drams_agent_errors_total"+l, "Probe observations that failed to log.", s.Errors),
		}
	}
}

// watcherCollector samples the policy-lifecycle watcher counters.
func watcherCollector(w *pap.Watcher) obs.Collector {
	return func() []metrics.Sample {
		s := w.Stats()
		return []metrics.Sample{
			obs.C("drams_watcher_activations_total", "Policy versions activated locally.", s.Activations),
			obs.C("drams_watcher_rejections_total", "Policy versions rejected locally.", s.Rejections),
			obs.G("drams_watcher_height", "Chain height of the last local policy activation.", int64(s.Height)),
		}
	}
}

// monitorCollector samples the off-chain monitor, including per-type alert
// counters and the detection-latency histogram.
func monitorCollector(m *core.Monitor) obs.Collector {
	return func() []metrics.Sample {
		s := m.Stats()
		out := []metrics.Sample{
			obs.C("drams_monitor_logs_seen_total", "On-chain log-stored events consumed.", s.LogsSeen),
			obs.C("drams_monitor_matched_total", "Requests whose logs matched cleanly on-chain.", s.Matched),
			obs.C("drams_monitor_stream_dropped_total", "Subscriber events dropped at full buffers.", s.StreamDropped),
			obs.G("drams_monitor_tracked", "Open exchanges: a probe record anchored, no match or alert yet.", int64(s.Tracked)),
			obs.G("drams_monitor_subscribers", "Live alert subscriptions.", int64(s.Subscribers)),
			obs.H("drams_monitor_detection_latency_ms", "Ms from an exchange's earliest anchored record timestamp to its first off-chain alert.", m.DetectionLatency()),
		}
		for _, t := range core.AllAlertTypes() {
			out = append(out, obs.C(
				fmt.Sprintf("drams_monitor_alerts_total{type=%q}", t),
				"Security alerts observed, by M-check type.", s.AlertsByType[t]))
		}
		return out
	}
}

// analyserCollector samples the analyser counters.
func analyserCollector(an *core.Analyser) obs.Collector {
	return func() []metrics.Sample {
		s := an.Stats()
		return []metrics.Sample{
			obs.C("drams_analyser_verdicts_total", "Expected-decision verdicts submitted.", s.VerdictsSubmitted),
			obs.C("drams_analyser_mismatches_total", "Re-derived decisions disagreeing with the PDP.", s.MismatchesFound),
			obs.C("drams_analyser_failures_total", "pdp.response records left without a verdict: no anchored policy, an undecryptable context, or a failed submit.", s.Failures),
		}
	}
}
