package attack

import "drams/internal/core"

// Batch-boundary manipulation at the PEP/PDP seam (federation.Tamper.Batch).
//
// DecideBatch ships every probed request in one wire frame and the PDP
// answers positionally, so the batch boundary is an ordering surface: an
// adversary on the pipeline can permute items after the edge probes
// recorded the honest order. The monitors see through it: a permuted batch
// misaligns each request with another request's decision (digest/tag
// mismatch, M2 AlertResponseTampered).

// ReverseBatch returns a Tamper.Batch hook reversing the wire order of the
// pipeline. With mixed-outcome batches every item receives some other
// item's decision.
func ReverseBatch() func(items [][]byte) [][]byte {
	return func(items [][]byte) [][]byte {
		out := make([][]byte, len(items))
		for i, it := range items {
			out[len(items)-1-i] = it
		}
		return out
	}
}

// HoldRecords returns a ByzantineNode.DelayRecords predicate trapping log
// records of the given kind for the given request IDs — the anchoring-delay
// building block (e.g. hold a pdp.response past the M3 deadline, or past a
// policy rollout's M6 grace window, then release it stale).
func HoldRecords(kind core.LogKind, reqIDs ...string) func(core.LogRecord) bool {
	ids := make(map[string]bool, len(reqIDs))
	for _, id := range reqIDs {
		ids[id] = true
	}
	return func(rec core.LogRecord) bool {
		return rec.Kind == kind && ids[rec.ReqID]
	}
}
