package pap

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/core"
	"drams/internal/crypto"
	"drams/internal/metrics"
	"drams/internal/xacml"
)

// EventKind classifies a watcher notification.
type EventKind string

// Watcher event kinds.
const (
	// EventStaged: a version was announced, verified against its anchored
	// digest and parsed; it is ready for the height-gated flip.
	EventStaged EventKind = "staged"
	// EventActivated: the chain reached the activation height and the
	// local PDP was hot-reloaded (on PDP-less members: the flip was
	// acknowledged).
	EventActivated EventKind = "activated"
	// EventRejected: a version failed local verification (digest mismatch
	// against the anchored root, unparseable bytes) or an on-chain
	// conflict was flagged; nothing was activated.
	EventRejected EventKind = "rejected"
)

// Event is one watcher notification, delivered on the watcher goroutine.
type Event struct {
	Kind    EventKind
	Version string
	Digest  crypto.Digest
	// Height is the chain height of the underlying on-chain event.
	Height uint64
	// Err explains a rejection.
	Err string
}

// WatcherStats snapshots the watcher counters (the PAP/PDP reload counters
// surfaced through Deployment.PolicyStats).
type WatcherStats struct {
	// Version is the last version this member activated ("" before the
	// first activation).
	Version string
	// Height is the chain height of the last activation.
	Height uint64
	// Staged / Activations / Rejections count watcher transitions.
	Staged      int64
	Activations int64
	Rejections  int64
	// EventsDropped is how many chain-event notifications this watcher's
	// subscription missed to a full buffer; Resyncs counts the chain-state
	// reconciliations triggered to recover from them.
	EventsDropped int64
	Resyncs       int64
}

// WatcherConfig configures a Watcher.
type WatcherConfig struct {
	// Node is the member's chain node (required).
	Node *blockchain.Node
	// PDP, when the member hosts one, is hot-reloaded at every activation
	// (atomic swap + decision-cache purge).
	PDP *xacml.PDP
	// OnEvent, when set, receives every watcher notification (monitor
	// wiring, daemon logging). Called on the watcher goroutine — keep it
	// non-blocking.
	OnEvent func(Event)
}

// Watcher tails a member's chain events and applies the policy lifecycle
// locally: stage on announcement, verify digests, atomically flip the PDP
// at the activation height, and surface every transition. On-chain state is
// the ground truth — Sync recovers from missed events (restart, slow
// subscriber), and activations are deduplicated so at-least-once event
// delivery (reorgs) cannot double-fire.
type Watcher struct {
	cfg WatcherConfig

	mu        sync.Mutex
	staged    map[string]*stagedPolicy // version → verified parsed set, until activated
	current   string                   // last version applied locally
	curHeight uint64
	// shown is what Stats and WaitForVersion report: current, once
	// the listeners of that flip have run (see activate).
	shown       string
	shownHeight uint64
	applied     map[appliedKey]bool // dedupe at-least-once activations (bounded)
	appliedQ    []appliedKey        // insertion order, for pruning
	waiters     map[uint64]chan struct{}
	nextWaiter  uint64

	stagedCnt   metrics.Counter
	activations metrics.Counter
	rejections  metrics.Counter
	resyncs     metrics.Counter
	dropped     metrics.Counter

	seenDrops int64 // last subscription drop count acted upon (watcher goroutine only)

	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	cancelSub func()
}

type stagedPolicy struct {
	set    *xacml.PolicySet
	digest crypto.Digest
}

type appliedKey struct {
	version string
	height  uint64
}

// NewWatcher builds a watcher (not yet started).
func NewWatcher(cfg WatcherConfig) (*Watcher, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("pap: watcher needs a node")
	}
	return &Watcher{
		cfg:     cfg,
		staged:  make(map[string]*stagedPolicy),
		applied: make(map[appliedKey]bool),
		waiters: make(map[uint64]chan struct{}),
		stop:    make(chan struct{}),
	}, nil
}

// appliedBound caps the at-least-once dedup set; only recent activations
// can be re-delivered (reorg window), so a small bound suffices.
const appliedBound = 64

// dropCheckInterval paces the fallback drop scan: drops are normally
// noticed on the next delivered event, but if the chain goes quiet right
// after an overflow the periodic check still recovers the watcher.
const dropCheckInterval = time.Second

// Start subscribes to chain events and replays the current on-chain policy
// state (Sync), so a member that boots — or restarts from its data dir —
// after activations converges immediately. Event delivery is best effort;
// whenever the subscription reports dropped notifications the watcher
// reconciles from chain state instead of trusting the gap.
func (w *Watcher) Start() {
	sub := w.cfg.Node.Subscribe(0)
	w.cancelSub = sub.Cancel
	w.Sync()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(dropCheckInterval)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.observeDrops(sub.Dropped())
			case note, ok := <-sub.C:
				if !ok {
					return
				}
				for _, e := range note.Events {
					if e.Contract == core.PolicyContractName {
						w.handleEvent(e.Type, e.Payload, note.Height)
					}
				}
				w.observeDrops(sub.Dropped())
			}
		}
	}()
}

// observeDrops reconciles with chain state when the event subscription
// reports notifications lost to a full buffer: any advance of the drop
// counter means an activation may have been missed, so the watcher resyncs
// (cheap when nothing changed — Sync dedupes against applied flips).
func (w *Watcher) observeDrops(dropped int64) {
	if dropped == w.seenDrops {
		return
	}
	w.dropped.Add(dropped - w.seenDrops)
	w.seenDrops = dropped
	w.resyncs.Inc()
	w.Sync()
}

// Stop halts the watcher.
func (w *Watcher) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	if w.cancelSub != nil {
		w.cancelSub()
	}
	w.wg.Wait()
}

// Stats snapshots the watcher counters.
func (w *Watcher) Stats() WatcherStats {
	w.mu.Lock()
	version, height := w.shown, w.shownHeight
	w.mu.Unlock()
	return WatcherStats{
		Version:       version,
		Height:        height,
		Staged:        w.stagedCnt.Value(),
		Activations:   w.activations.Value(),
		Rejections:    w.rejections.Value(),
		EventsDropped: w.dropped.Value(),
		Resyncs:       w.resyncs.Value(),
	}
}

// WaitForVersion blocks until this member has activated the given version
// (already-active versions return immediately).
func (w *Watcher) WaitForVersion(ctx context.Context, version string) error {
	for {
		w.mu.Lock()
		if w.shown == version {
			w.mu.Unlock()
			return nil
		}
		armed := make(chan struct{})
		id := w.nextWaiter
		w.nextWaiter++
		w.waiters[id] = armed
		w.mu.Unlock()
		release := func() {
			w.mu.Lock()
			delete(w.waiters, id)
			w.mu.Unlock()
		}
		select {
		case <-armed:
		case <-w.stop:
			release()
			return fmt.Errorf("pap: wait for policy %q: watcher stopped", version)
		case <-ctx.Done():
			release()
			return fmt.Errorf("pap: wait for policy %q: %w", version, ctx.Err())
		}
	}
}

// Sync reconciles with on-chain state: it applies the chain's active
// version if this member has not done so yet. Start calls it once; it is
// safe to call again at any time (e.g. after a partition heals).
func (w *Watcher) Sync() {
	var (
		version string
		digest  crypto.Digest
		ok      bool
		height  uint64
	)
	w.cfg.Node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
		version, digest, ok = core.ReadActivePolicy(st)
		if !ok {
			return
		}
		// The true activation height comes from the on-chain history (its
		// last entry is the active version), so a buffered activation
		// event for the same flip dedupes against this Sync.
		if hist := core.ReadPolicyHistory(st); len(hist) > 0 {
			height = hist[len(hist)-1].Height
		}
	})
	if !ok {
		return
	}
	w.activate(version, digest, height)
}

func (w *Watcher) handleEvent(eventType string, payload []byte, height uint64) {
	switch eventType {
	case core.EventPolicyStaged:
		var act core.PolicyActivation
		if err := json.Unmarshal(payload, &act); err != nil {
			return
		}
		// act.Height is the scheduled activation height (the payload is a
		// PolicyActivation), not the announcement block's height.
		w.stage(act.Version, act.Digest, act.Height)
	case core.EventPolicyActivated:
		var act core.PolicyActivation
		if err := json.Unmarshal(payload, &act); err != nil {
			return
		}
		w.activate(act.Version, act.Digest, act.Height)
	case core.EventPolicyConflict:
		var body struct {
			Version string `json:"version"`
			By      string `json:"by"`
		}
		if err := json.Unmarshal(payload, &body); err != nil {
			return
		}
		w.reject(Event{
			Kind: EventRejected, Version: body.Version, Height: height,
			Err: fmt.Sprintf("conflicting digest for anchored version (by %s)", body.By),
		})
	}
}

// fetch loads a version from chain state through core.LoadPolicyVersion.
func (w *Watcher) fetch(version string) (*stagedPolicy, error) {
	var (
		sp  stagedPolicy
		err error
	)
	w.cfg.Node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
		sp.set, sp.digest, err = core.LoadPolicyVersion(st, version)
	})
	if err != nil {
		return nil, err
	}
	return &sp, nil
}

// stage pre-verifies and parses an announced version so the activation
// flip later is a pure pointer swap.
func (w *Watcher) stage(version string, digest crypto.Digest, height uint64) {
	sp, err := w.fetch(version)
	if err != nil {
		w.reject(Event{Kind: EventRejected, Version: version, Digest: digest, Height: height, Err: err.Error()})
		return
	}
	w.mu.Lock()
	_, known := w.staged[version]
	w.staged[version] = sp
	w.mu.Unlock()
	if !known {
		w.stagedCnt.Inc()
		w.notify(Event{Kind: EventStaged, Version: version, Digest: sp.digest, Height: height})
	}
}

// activate flips this member to version: the staged parsed set (fetched
// from chain state when staging was missed) is atomically loaded into the
// PDP. The whole flip runs in one critical section, so a Sync racing the
// event goroutine applies each flip exactly once, at-least-once
// event deliveries dedupe, and a stale buffered activation (lower height
// than what this member already applied, e.g. after Sync caught up past
// it) can never downgrade the PDP.
func (w *Watcher) activate(version string, digest crypto.Digest, height uint64) {
	key := appliedKey{version, height}
	w.mu.Lock()
	if w.applied[key] || height < w.curHeight ||
		(w.current == version && w.curHeight >= height) {
		w.mu.Unlock()
		return
	}
	sp := w.staged[version]
	if sp == nil {
		var err error
		sp, err = w.fetch(version)
		if err != nil {
			w.mu.Unlock()
			w.reject(Event{Kind: EventRejected, Version: version, Digest: digest, Height: height, Err: err.Error()})
			return
		}
	}
	if !digest.IsZero() && sp.digest != digest {
		w.mu.Unlock()
		w.reject(Event{
			Kind: EventRejected, Version: version, Digest: digest, Height: height,
			Err: fmt.Sprintf("staged digest %s != activation digest %s", sp.digest.Short(), digest.Short()),
		})
		return
	}

	if w.cfg.PDP != nil {
		w.cfg.PDP.Load(sp.set)
	}

	w.current = version
	w.curHeight = height
	// The parsed set served its purpose (a rollback re-fetches from chain
	// state), and the dedup set is bounded to the reorg-redelivery window.
	delete(w.staged, version)
	w.applied[key] = true
	w.appliedQ = append(w.appliedQ, key)
	for len(w.appliedQ) > appliedBound {
		delete(w.applied, w.appliedQ[0])
		w.appliedQ = w.appliedQ[1:]
	}
	w.mu.Unlock()

	// Listeners first — the monitor's policy event and the deployment's
	// OnPolicyEvent hook run in OnEvent — and only then is the flip reported
	// by Version, Stats and WaitForVersion: whoever acts on the report (Open
	// returning, a test that polls and then sends a request) finds the
	// activation already in the member's event stream.
	w.activations.Inc()
	w.notify(Event{Kind: EventActivated, Version: version, Digest: sp.digest, Height: height})

	w.mu.Lock()
	if height >= w.shownHeight { // a later flip may have got here first
		w.shown, w.shownHeight = version, height
	}
	waiters := w.waiters
	w.waiters = make(map[uint64]chan struct{})
	w.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}

func (w *Watcher) reject(ev Event) {
	w.rejections.Inc()
	w.notify(ev)
}

func (w *Watcher) notify(ev Event) {
	if w.cfg.OnEvent != nil {
		w.cfg.OnEvent(ev)
	}
}

// MonitorEvent converts a watcher notification into the synthetic monitor
// alert the operators' Alerts subscriptions see (core.AlertPolicyActivated
// / core.AlertPolicyRejected; staged transitions produce no alert).
func MonitorEvent(ev Event) (core.Alert, bool) {
	ref := fmt.Sprintf("%s@%d", ev.Version, ev.Height)
	switch ev.Kind {
	case EventActivated:
		return core.Alert{
			Type: core.AlertPolicyActivated, ReqID: ref, Height: ev.Height,
			Detail: fmt.Sprintf("policy %s activated (digest %s)", ev.Version, ev.Digest.Short()),
		}, true
	case EventRejected:
		return core.Alert{
			Type: core.AlertPolicyRejected, ReqID: ref, Height: ev.Height,
			Detail: fmt.Sprintf("policy %s rejected: %s", ev.Version, ev.Err),
		}, true
	}
	return core.Alert{}, false
}
