package blockchain

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"drams/internal/crypto"
	"drams/internal/netsim"
	"drams/internal/transport"
)

// Tests for the window sizing of pullBranch: a pull asks for the height gap
// between its cursor and the local head, doubling per further window, capped
// at SyncBatch.

// pullRig is a source node holding the blocks, a "peer" endpoint that serves
// bc.getrange from it while recording every window asked and served, and a
// joiner that pulls from that peer.
type pullRig struct {
	src, joiner *Node
	peer        transport.Endpoint // "peer": gossip sent from it is pulled from it

	mu     sync.Mutex
	asked  []int    // rangeReq.Count per call
	served []int    // blocks in the response per call
	forged []*Block // when set, served in place of the honest response
	// hold, when set, parks every bc.getrange call after announcing it on
	// entered, until hold is closed.
	hold    chan struct{}
	entered chan struct{}
}

func newPullRig(t *testing.T, alice *crypto.Identity, joinerCfg NodeConfig) *pullRig {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 21})
	t.Cleanup(func() { net.Close() })
	r := &pullRig{}
	var err error
	r.src, err = NewNode(NodeConfig{Name: "src", Chain: testChainConfig(t, alice), Network: net, Peers: []string{"src"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.src.Stop)
	ep, err := net.Register("peer")
	if err != nil {
		t.Fatal(err)
	}
	r.peer = ep
	ep.OnCall(kindHead, r.src.handleHead)
	ep.OnCall(kindGetRange, func(from string, payload []byte) ([]byte, error) {
		req, err := decodeRangeReq(payload)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		hold, entered := r.hold, r.entered
		r.mu.Unlock()
		if hold != nil {
			entered <- struct{}{}
			<-hold
		}
		raw, err := r.src.handleGetRange(from, payload)
		if err != nil {
			return nil, err
		}
		resp, err := decodeRangeResp(raw)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.forged != nil {
			resp = nil
			for _, b := range r.forged {
				resp = append(resp, b.Encode())
			}
		}
		r.asked = append(r.asked, int(req.Count))
		r.served = append(r.served, len(resp))
		return encodeRangeResp(resp), nil
	})
	joinerCfg.Name = "joiner"
	joinerCfg.Chain = testChainConfig(t, alice)
	joinerCfg.Network = net
	joinerCfg.Peers = []string{"joiner"} // gossip nowhere: only the pulls under test talk
	r.joiner, err = NewNode(joinerCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.joiner.Stop)
	return r
}

// extend mines n blocks on src from parent, each carrying one alice
// transaction when alice is non-nil and empty otherwise, and returns them
// oldest first.
func (r *pullRig) extend(t *testing.T, parent crypto.Digest, n int, alice *crypto.Identity) []*Block {
	t.Helper()
	out := make([]*Block, 0, n)
	for i := 0; i < n; i++ {
		var txs []Transaction
		if alice != nil {
			pb, _ := r.src.chain.BlockByHash(parent)
			tx, err := NewTransaction(alice, pb.Header.Height, putCall(fmt.Sprintf("k%d", i), "v"))
			if err != nil {
				t.Fatal(err)
			}
			txs = []Transaction{tx}
		}
		b := mineChild(t, r.src.chain, parent, txs...)
		if err := r.src.chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
		parent = b.Hash()
	}
	return out
}

// holdPulls parks every range call from now on; the returned release lets
// them (and later ones) through. Each parked call is announced on r.entered.
func (r *pullRig) holdPulls() (release func()) {
	hold := make(chan struct{})
	r.mu.Lock()
	r.hold, r.entered = hold, make(chan struct{}, 16)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.hold = nil
		r.mu.Unlock()
		close(hold)
	}
}

func (r *pullRig) windows() (asked, served []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.asked...), append([]int(nil), r.served...)
}

// TestOrphanPullFetchesOnlyTheGap: block h never reaches a node at h-1 (a
// lost frame, a full import queue), block h+1 does. The pull must cost one
// call for one block, not a SyncBatch window of blocks the node already
// holds.
func TestOrphanPullFetchesOnlyTheGap(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	r := newPullRig(t, alice, NodeConfig{})
	main := r.extend(t, r.src.chain.Genesis(), 10, alice)
	for _, b := range main[:8] {
		if err := r.joiner.chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	before := r.joiner.Stats()

	r.joiner.importBlock(framed(main[9]), "peer") // height 10 at a node on height 8

	if h := r.joiner.chain.Height(); h != 10 {
		t.Fatalf("joiner height %d after resolving the orphan, want 10", h)
	}
	asked, served := r.windows()
	if !reflect.DeepEqual(asked, []int{1}) || !reflect.DeepEqual(served, []int{1}) {
		t.Fatalf("windows asked %v served %v, want one call for one block", asked, served)
	}
	after := r.joiner.Stats()
	if d := after.SyncBlocks - before.SyncBlocks; d != 1 {
		t.Fatalf("SyncBlocks advanced by %d, want 1", d)
	}
	if d := after.SyncCalls - before.SyncCalls; d != 1 {
		t.Fatalf("SyncCalls advanced by %d, want 1", d)
	}
	if after.OrphansResolved != before.OrphansResolved+1 {
		t.Fatalf("OrphansResolved = %d, want %d", after.OrphansResolved, before.OrphansResolved+1)
	}
}

// TestOrphanPullDoublesIntoADeepFork: the orphan sits on a branch that
// leaves the local chain far below the height difference, so the first
// window does not attach. Windows then grow 1, 2, 4, ... up to SyncBatch and
// the branch still attaches; SyncDepth still bounds the walk.
func TestOrphanPullDoublesIntoADeepFork(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	r := newPullRig(t, alice, NodeConfig{SyncBatch: 4})
	genesis := r.src.chain.Genesis()
	main := r.extend(t, genesis, 8, alice)
	fork := r.extend(t, genesis, 9, nil) // empty blocks: a different branch from height 1
	for _, b := range main {
		if err := r.joiner.chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}

	// Fork tip at height 9, node at height 8: the cursor (height 8) is level
	// with the local head, so the first window is the minimum.
	r.joiner.importBlock(framed(fork[8]), "peer")

	if head, h := r.joiner.chain.Head(); h != 9 || head != fork[8].Hash() {
		t.Fatalf("joiner head %s at %d, want the fork tip at 9", head.Short(), h)
	}
	asked, served := r.windows()
	if want := []int{1, 2, 4, 4}; !reflect.DeepEqual(asked, want) {
		t.Fatalf("windows asked %v, want %v (doubling, capped at SyncBatch 4)", asked, want)
	}
	if want := []int{1, 2, 4, 1}; !reflect.DeepEqual(served, want) { // genesis is never shipped
		t.Fatalf("windows served %v, want %v", served, want)
	}

	shallow := newPullRig(t, alice, NodeConfig{SyncBatch: 4, SyncDepth: 4})
	sGenesis := shallow.src.chain.Genesis()
	sMain := shallow.extend(t, sGenesis, 8, alice)
	sFork := shallow.extend(t, sGenesis, 9, nil)
	for _, b := range sMain {
		if err := shallow.joiner.chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	shallow.joiner.importBlock(framed(sFork[8]), "peer")
	if head, _ := shallow.joiner.chain.Head(); head != sMain[7].Hash() {
		t.Fatal("a branch deeper than SyncDepth was imported")
	}
	if asked, _ := shallow.windows(); !reflect.DeepEqual(asked, []int{1, 2}) {
		t.Fatalf("windows asked %v before giving up at depth 4, want [1 2]", asked)
	}
}

// TestPullRejectsOversizedAndOffBranchRanges: asking for less must not make
// the requester trust more. A response with more blocks than asked is
// refused outright, and a block that is not the one the cursor names fails
// the linkage check, whatever the window size.
func TestPullRejectsOversizedAndOffBranchRanges(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	cases := []struct {
		name    string
		respond func(main []*Block) []*Block // the lying answer to "one block at height 9"
		wantErr string
	}{
		// Correctly linked, just longer: heights 9 and 8.
		{"more than asked", func(main []*Block) []*Block { return []*Block{main[8], main[7]} }, "asked for 1"},
		{"off-branch block", func(main []*Block) []*Block { return []*Block{main[6]} }, "off-branch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newPullRig(t, alice, NodeConfig{})
			main := r.extend(t, r.src.chain.Genesis(), 10, alice)
			for _, b := range main[:8] {
				if err := r.joiner.chain.AddBlock(b); err != nil {
					t.Fatal(err)
				}
			}
			r.forged = tc.respond(main)
			err := r.joiner.pullBranch("peer", main[8].Hash(), 9, []framedBlock{framed(main[9])})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("pull error %v, want one containing %q", err, tc.wantErr)
			}
			if h := r.joiner.chain.Height(); h != 8 {
				t.Fatalf("joiner height %d after a refused range, want 8", h)
			}
			if got := r.joiner.Stats().SyncBlocks; got != 0 {
				t.Fatalf("SyncBlocks = %d for a refused range, want 0", got)
			}
		})
	}
}

// TestSyncFromLargeGapKeepsFullWindows: a rejoin is far behind, so its gap
// exceeds SyncBatch and every window is a full one — catch-up still costs
// ceil(gap/SyncBatch) range calls plus the head probe.
func TestSyncFromLargeGapKeepsFullWindows(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	r := newPullRig(t, alice, NodeConfig{}) // default SyncBatch 128
	r.extend(t, r.src.chain.Genesis(), 300, nil)

	if err := r.joiner.SyncFrom("peer"); err != nil {
		t.Fatal(err)
	}
	if h := r.joiner.chain.Height(); h != 300 {
		t.Fatalf("joiner height %d, want 300", h)
	}
	asked, served := r.windows()
	if want := []int{128, 128, 128}; !reflect.DeepEqual(asked, want) {
		t.Fatalf("windows asked %v, want %v", asked, want)
	}
	if want := []int{128, 128, 44}; !reflect.DeepEqual(served, want) {
		t.Fatalf("windows served %v, want %v", served, want)
	}
	st := r.joiner.Stats()
	if maxCalls := int64((300+127)/128 + 1); st.SyncCalls > maxCalls {
		t.Fatalf("SyncCalls = %d for a 300-block gap, want <= %d", st.SyncCalls, maxCalls)
	}
	if st.SyncBlocks != 300 {
		t.Fatalf("SyncBlocks = %d, want 300", st.SyncBlocks)
	}
}
