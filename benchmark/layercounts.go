package main

import (
	"fmt"
	"strings"
	"time"

	"drams"
	"drams/benchmark/layers"
	"drams/internal/xacml"
)

// counts is one reading of the fleet's own instruments: every drams_*
// counter and gauge of Deployment.Gatherer(), summed over its labels (a
// histogram as its _sum and _count), plus the producer's chain height. The
// benchmark reads these series; it adds none.
type counts struct {
	series map[string]float64
	height uint64
}

func readCounts(dep *drams.Deployment) (counts, error) {
	c := counts{series: make(map[string]float64)}
	for _, s := range dep.Gatherer().Gather() {
		family, _, _ := strings.Cut(s.Name, "{")
		if s.Hist != nil {
			c.series[family+"_sum"] += s.Hist.Sum
			c.series[family+"_count"] += float64(s.Hist.Count)
			continue
		}
		c.series[family] += float64(s.Value)
	}
	cloud, err := producerCloud(dep)
	if err != nil {
		return counts{}, err
	}
	node, err := dep.Node(cloud)
	if err != nil {
		return counts{}, err
	}
	c.height = node.Chain().Height()
	return c, nil
}

// producerCloud names the infrastructure cloud, whose chain node mines.
func producerCloud(dep *drams.Deployment) (string, error) {
	infra, err := dep.Topology().InfrastructureTenant()
	return infra.Cloud, err
}

// stageP50 reads the p50 of one drams_trace_stage_ms histogram (ms). The
// histograms cover the fleet's whole life, warm-up included.
func stageP50(dep *drams.Deployment, stage string) float64 {
	return dep.Gatherer().Registry().Histogram(fmt.Sprintf("drams_trace_stage_ms{stage=%q}", stage)).Quantile(0.5)
}

// layerMetrics fills the per-layer metrics of a traced run: counts as
// differences over the measured phase, waits from the stage histograms,
// times from the layer replay on the settled fleet.
func layerMetrics(f *fleet, p *plan, rec *recorder, before counts, out *outcome) error {
	after, err := readCounts(f.dep)
	if err != nil {
		return err
	}
	delta := func(family string) float64 { return after.series[family] - before.series[family] }
	n := float64(out.Completions)
	L := out.Layer

	if lookups := delta("drams_pdp_cache_hits_total") + delta("drams_pdp_cache_misses_total"); lookups > 0 {
		L["xacml.cache_hit_ratio"] = delta("drams_pdp_cache_hits_total") / lookups
	}
	L["transport.msgs_per_exchange"] = delta("drams_transport_sent_total") / n
	L["transport.bytes_per_exchange"] = delta("drams_transport_bytes_total") / n
	if flushes := delta("drams_li_flush_depth_count"); flushes > 0 {
		L["logger.records_per_batch"] = delta("drams_li_flush_depth_sum") / flushes
	}
	L["logger.dropped"] = delta("drams_li_dropped_total") + delta("drams_agent_errors_total")
	L["logger.flush_wait_ms"] = stageP50(f.dep, "li.flush_wait")
	L["blockchain.anchor_ms"] = stageP50(f.dep, "chain.anchor")
	L["core.analyser_verify_ms"] = stageP50(f.dep, "analyser.verify")
	L["core.monitor_match_ms"] = stageP50(f.dep, "monitor.match")
	L["core.monitor_alert_ms"] = stageP50(f.dep, "monitor.alert")
	L["core.analyser_failures"] = delta("drams_analyser_failures_total")
	L["core.monitor_stream_dropped"] = delta("drams_monitor_stream_dropped_total")
	L["core.monitor_tracked_end"] = after.series["drams_monitor_tracked"]
	L["pap.activations"] = delta("drams_watcher_activations_total")
	L["pap.watcher_resyncs"] = delta("drams_watcher_resyncs_total")
	L["pap.rejections"] = delta("drams_watcher_rejections_total")
	L["blockchain.range_pulls"] = delta("drams_node_sync_calls_total")
	L["blockchain.orphans_resolved"] = delta("drams_node_orphans_resolved_total")
	if mined := delta("drams_node_blocks_mined_total"); mined > 0 {
		L["blockchain.mined_useful_ratio"] = mined / (mined + delta("drams_node_mining_cancelled_total"))
	}

	// Block shape of the measured phase, from the producer's best chain. On
	// acplane nothing is logged, so every block is empty and tx_per_block
	// stays 0; the producer still mines at the empty-block interval.
	cloud, err := producerCloud(f.dep)
	if err != nil {
		return err
	}
	node, err := f.dep.Node(cloud)
	if err != nil {
		return err
	}
	var blocks, empty, txs float64
	for h := before.height + 1; h <= after.height; h++ {
		b, ok := node.Chain().BlockByHeight(h)
		if !ok {
			continue
		}
		blocks++
		if len(b.Txs) == 0 {
			empty++
		}
		txs += float64(len(b.Txs))
	}
	if blocks > 0 {
		L["blockchain.blocks_per_exchange"] = blocks / n
		L["blockchain.empty_block_share"] = empty / blocks
		if blocks > empty {
			L["blockchain.tx_per_block"] = txs / (blocks - empty)
		}
	}

	replayed, err := layers.Replay(f.dep, layers.Inputs{
		Seed: deploymentSeed, TimeoutBlocks: timeoutBlocks, Monitored: p.spec.Monitored,
		Policy: p.policy, Requests: sampleRequests(p),
		Span: func(name string) func() {
			id := rec.begin(name, -1, "", time.Now())
			return func() { rec.end(id, time.Now()) }
		},
	})
	if err != nil {
		return err
	}
	for name, v := range replayed {
		L[name] = v
	}

	// Residuals: what the per-layer figures leave unexplained of the two
	// end-to-end medians (ROADMAP 1(c)'s named, bounded residual).
	hit := L["xacml.cache_hit_ratio"]
	eval := hit*L["xacml.eval_hit_us"] + (1-hit)*L["xacml.eval_miss_us"]
	probes := 0.0
	if p.spec.Monitored {
		probes = 4 * L["logger.log_us"]
	}
	net := 2 * float64(p.spec.NetLatency) / float64(time.Microsecond)
	L["residual.decide_us"] = out.Metrics["decide_p50_ms"]*1000 - (net + eval + probes + L["transport.call_us"])
	if p.spec.Monitored {
		L["residual.match_ms"] = out.Metrics["settle_p50_ms"] -
			(out.Metrics["decide_p50_ms"] + L["logger.flush_wait_ms"] + L["blockchain.anchor_ms"] + L["core.analyser_verify_ms"])
	}
	return nil
}

// sampleRequests returns up to 1 024 requests of the workload's stream for
// the replay: the planned exchanges, or a fresh issuer's stream on acplane.
func sampleRequests(p *plan) []*xacml.Request {
	const sample = 1024
	var reqs []*xacml.Request
	if p.ac != nil {
		is := newACIssuer(p.ac, p.seed, 0)
		for i := 0; i < sample; i++ {
			reqs = append(reqs, is.next().Clone())
		}
		return reqs
	}
	for _, ex := range p.exchanges[:min(len(p.exchanges), sample)] {
		reqs = append(reqs, ex.req)
	}
	return reqs
}
