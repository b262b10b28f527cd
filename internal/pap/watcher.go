package pap

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

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
	// EventActivated: the member's chain replica holds a new active
	// version and the local PDP was hot-reloaded (on PDP-less members: the
	// flip was acknowledged).
	EventActivated EventKind = "activated"
	// EventRejected: the active version failed local verification (digest
	// mismatch against the anchored root, unparseable bytes) or an
	// on-chain conflict was flagged; nothing was activated.
	EventRejected EventKind = "rejected"
)

// Event is one watcher notification, delivered on the watcher goroutine.
type Event struct {
	Kind    EventKind
	Version string
	Digest  crypto.Digest
	// Height is the chain height the version was activated at (for a
	// conflict: the height of the block that flagged it).
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
	// Activations / Rejections count watcher transitions.
	Activations int64
	Rejections  int64
}

// WatcherConfig configures a Watcher.
type WatcherConfig struct {
	// Node is the member's chain node (required).
	Node *blockchain.Node
	// PDP, when the member hosts one, is hot-reloaded at every activation
	// (an atomic swap of the loaded policy set).
	PDP *xacml.PDP
	// OnEvent, when set, receives every watcher notification (monitor
	// wiring, daemon logging). Called on the watcher goroutine — keep it
	// non-blocking.
	OnEvent func(Event)
}

// Watcher makes a member follow the active policy its own chain replica
// holds. On every head change of the node's chain it reads the active
// version; when that differs from what the last read found (activated or
// rejected), it loads the version through core.LoadPolicyVersion, which
// re-verifies the stored bytes against the anchored digest, hot-reloads
// the PDP and surfaces the transition. State is the only input, so a
// restart, a slow watcher and a reorg are one case: a reorg that moves the
// active version back is applied like any flip. A watcher that lags several
// flips loads and reports only the version the head holds when it reads,
// once; the versions in between are never applied locally. PolicyConflict,
// which leaves no trace in state, is read from the same blocks' events.
type Watcher struct {
	cfg WatcherConfig

	// seen is the active version the last head read found, activated or
	// rejected (Start, then the watcher goroutine only).
	seen activeVersion

	mu sync.Mutex
	// shown is what Stats and WaitForVersion report: the last activation,
	// once the listeners of that flip have run (see sync).
	shown       string
	shownHeight uint64
	// flipped is closed and replaced each time shown changes.
	flipped chan struct{}

	activations metrics.Counter
	rejections  metrics.Counter

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// activeVersion names the active policy by version and anchored digest: a
// fork may anchor the same version label with other bytes.
type activeVersion struct {
	version string
	digest  crypto.Digest
}

// NewWatcher builds a watcher (not yet started).
func NewWatcher(cfg WatcherConfig) (*Watcher, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("pap: watcher needs a node")
	}
	return &Watcher{
		cfg:     cfg,
		flipped: make(chan struct{}),
		stop:    make(chan struct{}),
	}, nil
}

// Start applies the chain's active policy, so a member that boots — or
// restarts from its data dir — after activations converges before Start
// returns, then follows the head (blockchain.Node.Follow): for every head
// move it surfaces the PolicyConflict events of the new blocks and re-reads
// the active version. The cursor is taken before the first read, and every
// head move after it is seen, so the watcher needs no recovery path.
func (w *Watcher) Start() {
	node := w.cfg.Node
	from := node.Chain().Cursor()
	w.sync()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		node.Follow(w.stop, from, func(blocks []blockchain.BlockEvents) {
			for _, b := range blocks {
				for _, e := range b.Events {
					if e.Contract == core.PolicyContractName && e.Type == core.EventPolicyConflict {
						w.conflict(e.Payload, b.Height)
					}
				}
			}
			w.sync()
		})
	}()
}

// Stop halts the watcher.
func (w *Watcher) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
}

// Stats snapshots the watcher counters.
func (w *Watcher) Stats() WatcherStats {
	w.mu.Lock()
	version, height := w.shown, w.shownHeight
	w.mu.Unlock()
	return WatcherStats{
		Version:     version,
		Height:      height,
		Activations: w.activations.Value(),
		Rejections:  w.rejections.Value(),
	}
}

// WaitForVersion blocks until this member has activated the given version
// (already-active versions return immediately).
func (w *Watcher) WaitForVersion(ctx context.Context, version string) error {
	for {
		w.mu.Lock()
		shown, flipped := w.shown, w.flipped
		w.mu.Unlock()
		if shown == version {
			return nil
		}
		select {
		case <-flipped:
		case <-w.stop:
			return fmt.Errorf("pap: wait for policy %q: watcher stopped", version)
		case <-ctx.Done():
			return fmt.Errorf("pap: wait for policy %q: %w", version, ctx.Err())
		}
	}
}

// sync reads the replica's active version and applies it if it is not the
// one the last read found. When nothing changed that is two state reads.
func (w *Watcher) sync() {
	var (
		active  activeVersion
		changed bool
		ps      *xacml.PolicySet
		height  uint64
		err     error
	)
	w.cfg.Node.Chain().ReadState(core.PolicyContractName, func(st contract.StateDB) {
		var ok bool
		active.version, active.digest, ok = core.ReadActivePolicy(st)
		if changed = ok && active != w.seen; !changed {
			return
		}
		ps, _, err = core.LoadPolicyVersion(st, active.version)
		// The history's last entry is the active version's activation.
		if hist := core.ReadPolicyHistory(st); len(hist) > 0 {
			height = hist[len(hist)-1].Height
		}
	})
	if !changed {
		return
	}
	w.seen = active
	if err != nil {
		w.reject(Event{Kind: EventRejected, Version: active.version, Digest: active.digest, Height: height, Err: err.Error()})
		return
	}
	if w.cfg.PDP != nil {
		w.cfg.PDP.Load(ps)
	}

	// Listeners first — the monitor's policy event and the deployment's
	// OnPolicyEvent hook run in OnEvent — and only then is the flip reported
	// by Stats and WaitForVersion: whoever acts on the report (Open
	// returning, a test that polls and then sends a request) finds the
	// activation already in the member's event stream.
	w.activations.Inc()
	w.notify(Event{Kind: EventActivated, Version: active.version, Digest: active.digest, Height: height})

	w.mu.Lock()
	w.shown, w.shownHeight = active.version, height
	close(w.flipped)
	w.flipped = make(chan struct{})
	w.mu.Unlock()
}

// conflict surfaces an on-chain PolicyConflict as a rejection.
func (w *Watcher) conflict(payload []byte, height uint64) {
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

func (w *Watcher) reject(ev Event) {
	w.rejections.Inc()
	w.notify(ev)
}

func (w *Watcher) notify(ev Event) {
	if w.cfg.OnEvent != nil {
		w.cfg.OnEvent(ev)
	}
}
