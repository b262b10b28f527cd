package blockchain

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"drams/internal/netsim"
	"drams/internal/transport"
)

// TestMineLoopHeadMovedMidSnapshot: a peer's block carrying a pooled
// transaction has moved the head, and the pool has not yet been pruned of it
// — the window in which a miner used to build the confirmed transaction onto
// the new head, a guaranteed rejection after the PoW was paid. Collect
// filters against the chain, so the miner's next block leaves it out.
func TestMineLoopHeadMovedMidSnapshot(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 9})
	defer net.Close()
	node, err := NewNode(NodeConfig{
		Name:    "miner",
		Chain:   testChainConfig(t, alice),
		Network: net,
		Mine:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	tx, err := NewTransaction(alice, 0, putCall("race", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := node.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := node.chain.AddBlock(mineChild(t, node.chain, node.chain.Genesis(), tx)); err != nil {
		t.Fatalf("competing import: %v", err)
	}
	node.Start()
	next, err := NewTransaction(alice, 1, putCall("next", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := node.SubmitTx(next); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, _, err := node.chain.Receipt(next.ID())
		return err == nil
	}, "next tx mined")
	if rec, _, err := node.chain.Receipt(tx.ID()); err != nil || rec.Height != 1 {
		t.Fatalf("competing tx receipt %+v, %v; want it at height 1", rec, err)
	}
	if st := node.Stats(); st.MiningCancelled != 0 || st.BlocksRejected != 0 || st.BlocksMined == 0 {
		t.Fatalf("mined %d, cancelled %d, rejected %d: the miner built on a stale pool",
			st.BlocksMined, st.MiningCancelled, st.BlocksRejected)
	}
}

// rangeOf is a test helper calling the bc.getrange handler directly.
func rangeOf(t *testing.T, n *Node, req rangeReq) []*Block {
	t.Helper()
	raw, err := n.handleGetRange("tester", req.encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeRangeResp(raw)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Block, len(resp))
	for i, enc := range resp {
		b, err := DecodeBlock(enc)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func TestGetRangeServesDescendingWindow(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 4})
	defer net.Close()
	node, err := NewNode(NodeConfig{Name: "src", Chain: testChainConfig(t, alice), Network: net})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	parent := node.chain.Genesis()
	for i := 1; i <= 6; i++ {
		tx, err := NewTransaction(alice, uint64(i), putCall(fmt.Sprintf("k%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		b := mineChild(t, node.chain, parent, tx)
		if err := node.chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		parent = b.Hash()
	}
	head, _ := node.chain.Head()

	// Full window: descending from head, genesis excluded.
	blocks := rangeOf(t, node, rangeReq{Cursor: head, Count: 100})
	if len(blocks) != 6 {
		t.Fatalf("got %d blocks, want 6", len(blocks))
	}
	for i, b := range blocks {
		if want := uint64(6 - i); b.Header.Height != want {
			t.Fatalf("block %d at height %d, want %d", i, b.Header.Height, want)
		}
	}
	// Bounded window respects Count.
	if got := len(rangeOf(t, node, rangeReq{Cursor: head, Count: 2})); got != 2 {
		t.Fatalf("bounded window returned %d blocks", got)
	}
	// Unknown cursor errors.
	if _, err := node.handleGetRange("tester", rangeReq{Cursor: crypto32(0xee), Count: 4}.encode()); err == nil {
		t.Fatal("unknown cursor served")
	}
}

// TestBatchedSyncUsesFewCalls proves catch-up economics: syncing a chain of
// N blocks costs ~N/SyncBatch range calls, not N round-trips.
func TestBatchedSyncUsesFewCalls(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 5})
	defer net.Close()
	src, err := NewNode(NodeConfig{Name: "src", Chain: testChainConfig(t, alice), Network: net,
		Peers: []string{"src", "joiner"}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Stop()
	parent := src.chain.Genesis()
	const length = 30
	for i := 1; i <= length; i++ {
		tx, err := NewTransaction(alice, uint64(i), putCall(fmt.Sprintf("k%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		b := mineChild(t, src.chain, parent, tx)
		if err := src.chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		parent = b.Hash()
	}

	joiner, err := NewNode(NodeConfig{Name: "joiner", Chain: testChainConfig(t, alice), Network: net,
		Peers: []string{"src", "joiner"}, SyncBatch: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	if err := joiner.SyncFrom("src"); err != nil {
		t.Fatal(err)
	}
	if joiner.chain.Height() != length {
		t.Fatalf("joiner height %d, want %d", joiner.chain.Height(), length)
	}
	if joiner.chain.StateDigest() != src.chain.StateDigest() {
		t.Fatal("state digest diverged")
	}
	st := joiner.Stats()
	if st.SyncBlocks != length {
		t.Fatalf("SyncBlocks = %d, want %d", st.SyncBlocks, length)
	}
	// 1 head call + ceil(30/10) range calls.
	if st.SyncCalls > 5 {
		t.Fatalf("SyncCalls = %d for %d blocks (batch 10)", st.SyncCalls, length)
	}
}

// TestNodeRestartFromStore is the crash/restart lifecycle: a validating
// node persists incrementally, dies, reopens from its data dir with full
// re-validation, and catches up past its crash height via batched sync.
func TestNodeRestartFromStore(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{BaseLatency: time.Millisecond, Seed: 7})
	defer net.Close()
	peers := []string{"miner", "member"}
	miner, err := NewNode(NodeConfig{Name: "miner", Chain: testChainConfig(t, alice), Network: net,
		Peers: peers, Mine: true, EmptyBlockInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer miner.Stop()
	miner.Start()

	path := filepath.Join(t.TempDir(), "member.wal")
	member, err := NewNode(NodeConfig{Name: "member", Chain: testChainConfig(t, alice), Network: net,
		Peers: peers, BlockLog: path})
	if err != nil {
		t.Fatal(err)
	}
	member.Start()

	// Some real transactions so the restored state digest is non-trivial.
	sender := NewSender(miner, alice)
	for i := 0; i < 5; i++ {
		if _, err := sender.Send(putCall(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, func() bool { return member.chain.Height() >= 8 }, "member at height 8")

	// Crash: stop without any explicit save — the block log must already
	// hold everything up to the member's head.
	crashHeight := member.chain.Height()
	member.Stop()
	net.Unregister("member")
	if st := member.Stats(); st.BlocksPersisted < int64(crashHeight) {
		t.Fatalf("persisted %d blocks, head was %d", st.BlocksPersisted, crashHeight)
	}

	// The fleet moves on while the member is down.
	waitFor(t, 15*time.Second, func() bool { return miner.chain.Height() >= crashHeight+6 }, "fleet advanced")

	// Reopen: the logged chain is re-validated and the node rejoins.
	restarted, err := NewNode(NodeConfig{Name: "member", Chain: testChainConfig(t, alice), Network: net,
		Peers: peers, BlockLog: path})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Stop()
	if st := restarted.Stats(); st.BlocksReloaded < int64(crashHeight) {
		t.Fatalf("reloaded %d blocks, crashed at height %d", st.BlocksReloaded, crashHeight)
	}
	if restarted.chain.Height() < crashHeight {
		t.Fatalf("restored height %d < crash height %d", restarted.chain.Height(), crashHeight)
	}
	restarted.Start()
	if err := restarted.SyncFrom("miner"); err != nil {
		t.Fatal(err)
	}
	if h := restarted.chain.Height(); h < crashHeight+6 {
		t.Fatalf("caught up only to height %d", h)
	}
	waitFor(t, 10*time.Second, func() bool {
		return restarted.chain.StateDigest() == miner.chain.StateDigest()
	}, "state digests converge after restart")
	st := restarted.Stats()
	if st.SyncBlocks == 0 {
		t.Fatal("no blocks fetched through catch-up")
	}
	if st.SyncCalls >= st.SyncBlocks+2 {
		t.Fatalf("per-block economics: %d calls for %d blocks", st.SyncCalls, st.SyncBlocks)
	}
}

// TestNodeReopenTruncatedWAL simulates the classic crash artifact — a torn
// final record — and expects the validated prefix to load and the torn
// record to count as dropped.
func TestNodeReopenTruncatedWAL(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	path := filepath.Join(t.TempDir(), "chain.wal")
	src := buildTestChain(t, 5, path)
	src.closeLog()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	net := netsim.New(netsim.Config{Seed: 8})
	defer net.Close()
	node, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net, BlockLog: path})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if st := node.Stats(); node.chain.Height() != 5 || st.BlocksReloaded != 5 || st.ReloadDropped != 1 {
		t.Fatalf("height=%d reloaded=%d dropped=%d after a torn record, want 5/5/1",
			node.chain.Height(), st.BlocksReloaded, st.ReloadDropped)
	}
	if node.chain.StateDigest() != src.StateDigest() {
		t.Fatal("state digest lost through torn record")
	}
}

// TestNodeReopenCorruptBlockTruncatesTail: a persisted block that fails
// validation must not brick the node — the validated prefix survives, the
// damaged tail is dropped from the store, and a peer refills it.
func TestNodeReopenCorruptBlockTruncatesTail(t *testing.T) {
	reopenWithDamagedBlock4(t, func(_ *Block, raw []byte) []byte {
		mutated := append([]byte(nil), raw...)
		mutated[len(mutated)-1] ^= 0xff
		return mutated
	})
}

// TestJSONPersistedChainReopens: a block logged as encoding/json of the
// struct carries no known format tag, so it is a damaged tail like any
// other — the log still reopens, from the heights below it.
func TestJSONPersistedChainReopens(t *testing.T) {
	reopenWithDamagedBlock4(t, func(b *Block, _ []byte) []byte { return mustJSON(t, b) })
}

// TestOldFormatWALRefusedByName: a data directory written by an older build
// is refused by name, and the node starts from genesis and re-syncs from its
// peers. Blocks of the 0x01 format (before transaction identity changed) and
// the 0x02 format (before the per-sender nonce gave way to a salt and an
// expiry height) would misread the transaction bodies under today's layout
// and fail on a Merkle root or a signature a few checks in; blocks of the
// 0x03 format (JSON probe records in the args) would decode and then fail
// their records in the contract; blocks of the 0x04 format (today's fields
// in a fixed-width framing) would misread their lengths. Their format byte
// refuses them all first, at height 1, and the error names the byte. A
// JSON-lines WAL, the file format before the block log, is refused by its
// first byte before any record is read.
func TestOldFormatWALRefusedByName(t *testing.T) {
	oldFormat := func(tag byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			logged := readLog(t, path)
			for _, raw := range logged {
				raw[0] = tag
			}
			writeLog(t, path, logged)
		}
	}
	for _, tc := range []struct {
		name    string
		write   func(t *testing.T, path string)
		want    string
		dropped int64
	}{
		{"0x01", oldFormat(0x01), "height 1: blockchain: decode block: unknown format byte 0x01", 4},
		{"0x02", oldFormat(0x02), "height 1: blockchain: decode block: unknown format byte 0x02", 4},
		{"0x03", oldFormat(0x03), "height 1: blockchain: decode block: unknown format byte 0x03", 4},
		// Today's blocks in the fixed-width framing of 0x04.
		{"0x04", func(t *testing.T, path string) {
			logged := readLog(t, path)
			for i, raw := range logged {
				b, err := DecodeBlock(raw)
				if err != nil {
					t.Fatal(err)
				}
				logged[i] = appendBlockV4(b)
			}
			writeLog(t, path, logged)
		}, "height 1: blockchain: decode block: unknown format byte 0x04, an older build's", 4},
		{"json-wal", func(t *testing.T, path string) {
			wal := `{"op":"put","key":"block/0000000000000001","value":"AwAA"}` + "\n" +
				`{"op":"put","key":"head","value":"AAAAAAAAAAE="}` + "\n"
			if err := os.WriteFile(path, []byte(wal), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "the JSON-lines WAL of an older build", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alice := testIdentity(t, "alice", 1)
			path := filepath.Join(t.TempDir(), "chain.wal")
			buildTestChain(t, 4, path).closeLog()
			tc.write(t, path)
			written, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c, rep := reopenLog(t, path)
			if c.Height() != 0 || rep.loaded != 0 || int64(rep.dropped) != tc.dropped ||
				rep.stopped == nil || !strings.Contains(rep.stopped.Error(), tc.want) {
				t.Fatalf("replay %+v, want 0 blocks and %q", rep, tc.want)
			}
			if errors.Is(rep.stopped, ErrBadSignature) || errors.Is(rep.stopped, ErrBadMerkleRoot) {
				t.Fatalf("old format surfaced as a validation failure: %v", rep.stopped)
			}

			if err := os.WriteFile(path, written, 0o644); err != nil {
				t.Fatal(err)
			}
			net := netsim.New(netsim.Config{Seed: 12})
			defer net.Close()
			node, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net, BlockLog: path})
			if err != nil {
				t.Fatal(err)
			}
			node.Stop()
			if st := node.Stats(); node.chain.Height() != 0 || st.BlocksReloaded != 0 || st.ReloadDropped != tc.dropped {
				t.Fatalf("height=%d reloaded=%d dropped=%d, want 0/0/%d", node.chain.Height(), st.BlocksReloaded, st.ReloadDropped, tc.dropped)
			}
			if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, logHeader) {
				t.Fatalf("refused file left as %q, %v; want an empty log", data, err)
			}
		})
	}
}

// reopenWithDamagedBlock4 logs a 6-block chain, rewrites the log with
// damage(block, logged bytes) as the record of height 4, reopens a node on
// it, and refills the dropped heights from a peer.
func reopenWithDamagedBlock4(t *testing.T, damage func(b *Block, raw []byte) []byte) {
	alice := testIdentity(t, "alice", 1)
	path := filepath.Join(t.TempDir(), "chain.wal")
	src := buildTestChain(t, 6, path)
	src.closeLog()
	logged := readLog(t, path)
	b4, _ := src.BlockByHeight(4)
	logged[3] = damage(b4, logged[3])
	writeLog(t, path, logged)

	net := netsim.New(netsim.Config{Seed: 10})
	defer net.Close()
	node, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net,
		Peers: []string{"n", "src"}, BlockLog: path})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if node.chain.Height() != 3 {
		t.Fatalf("height %d after corrupt tail, want 3", node.chain.Height())
	}
	st := node.Stats()
	if st.BlocksReloaded != 3 || st.ReloadDropped != 3 {
		t.Fatalf("reloaded=%d dropped=%d, want 3/3", st.BlocksReloaded, st.ReloadDropped)
	}
	if got := len(readLog(t, path)); got != 3 {
		t.Fatalf("log still holds %d records after the cut", got)
	}

	// A peer with the intact chain refills the dropped heights.
	srcNode, err := NewNode(NodeConfig{Name: "src", Chain: testChainConfig(t, alice), Network: net,
		Peers: []string{"n", "src"}})
	if err != nil {
		t.Fatal(err)
	}
	defer srcNode.Stop()
	for _, h := range src.BestChainHashes()[1:] {
		b, _ := src.BlockByHash(h)
		if err := srcNode.Chain().AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.SyncFrom("src"); err != nil {
		t.Fatal(err)
	}
	if node.chain.Height() != 6 || node.chain.StateDigest() != src.StateDigest() {
		t.Fatalf("refill failed: height %d", node.chain.Height())
	}
	// And the refilled suffix is durable again.
	if got := len(readLog(t, path)); got != 6 {
		t.Fatalf("log holds %d records after refill, want 6", got)
	}
}

// TestSyncFromToleratesHeadChurn scripts a peer whose head answer is stale
// by the time the branch is pulled (reorged away): SyncFrom must chase the
// fresh head instead of failing with "did not converge".
func TestSyncFromToleratesHeadChurn(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 11})
	defer net.Close()

	// Main chain of 8 blocks plus a doomed fork block at height 5.
	main := buildTestChain(t, 8, "")
	hashes := main.BestChainHashes()
	fork := mineChild(t, main, hashes[4]) // empty sibling of block 5
	byHash := make(map[string]*Block)
	for _, h := range hashes[1:] {
		b, _ := main.BlockByHash(h)
		byHash[string(h[:])] = b
	}

	ep, err := net.Register("churn-peer")
	if err != nil {
		t.Fatal(err)
	}
	var headCalls int
	var mu sync.Mutex
	ep.OnCall(kindHead, func(from string, payload []byte) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		headCalls++
		if headCalls == 1 {
			// First answer: the fork block, which "reorgs away" before the
			// joiner can pull its ancestry.
			return headInfo{Hash: fork.Hash(), Height: 5}.encode(), nil
		}
		return headInfo{Hash: hashes[8], Height: 8}.encode(), nil
	})
	ep.OnCall(kindGetRange, func(from string, payload []byte) ([]byte, error) {
		req, err := decodeRangeReq(payload)
		if err != nil {
			return nil, err
		}
		var resp [][]byte
		cursor := req.Cursor
		for uint64(len(resp)) < req.Count {
			b, ok := byHash[string(cursor[:])]
			if !ok {
				if len(resp) == 0 {
					return nil, errors.New("not found (reorged away)")
				}
				break
			}
			resp = append(resp, b.Encode())
			cursor = b.Header.PrevHash
		}
		return encodeRangeResp(resp), nil
	})

	joiner, err := NewNode(NodeConfig{Name: "joiner", Chain: testChainConfig(t, alice), Network: net,
		Peers: []string{"joiner", "churn-peer"}, SyncBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	if err := joiner.SyncFrom("churn-peer"); err != nil {
		t.Fatalf("head churn not tolerated: %v", err)
	}
	if joiner.chain.Height() != 8 {
		t.Fatalf("joiner height %d, want 8", joiner.chain.Height())
	}
	if joiner.chain.StateDigest() != main.StateDigest() {
		t.Fatal("state digest diverged")
	}
}

// crypto32 builds a fixed digest for negative tests.
func crypto32(fill byte) (d [32]byte) {
	for i := range d {
		d[i] = fill
	}
	return
}

// TestGetRangeByteCapSplitsLargeBlocks: a range response must stay under
// the transport frame budget however large individual blocks are — the
// window splits and the requester keeps pulling, so catch-up on a chain of
// fat blocks still completes (and still beats per-block on round-trips).
func TestGetRangeByteCapSplitsLargeBlocks(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 12})
	defer net.Close()
	src, err := NewNode(NodeConfig{Name: "src", Chain: testChainConfig(t, alice), Network: net,
		Peers: []string{"src", "joiner"}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Stop()
	big := make([]byte, 1<<20) // ~1.4 MiB per encoded block (JSON inflates)
	for i := range big {
		big[i] = byte(i)
	}
	parent := src.chain.Genesis()
	const length = 8
	for i := 1; i <= length; i++ {
		tx, err := NewTransaction(alice, uint64(i), putCall(fmt.Sprintf("k%d", i), string(big)))
		if err != nil {
			t.Fatal(err)
		}
		b := mineChild(t, src.chain, parent, tx)
		if err := src.chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		parent = b.Hash()
	}
	head, _ := src.chain.Head()
	if got := len(rangeOf(t, src, rangeReq{Cursor: head, Count: length})); got >= length {
		t.Fatalf("one response carried all %d fat blocks — byte cap not applied", got)
	}

	joiner, err := NewNode(NodeConfig{Name: "joiner", Chain: testChainConfig(t, alice), Network: net,
		Peers: []string{"src", "joiner"}})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	if err := joiner.SyncFrom("src"); err != nil {
		t.Fatal(err)
	}
	if joiner.chain.Height() != length || joiner.chain.StateDigest() != src.chain.StateDigest() {
		t.Fatalf("fat-block sync incomplete: height %d", joiner.chain.Height())
	}
	st := joiner.Stats()
	if st.SyncCalls >= int64(length) {
		t.Fatalf("split windows degenerated to per-block: %d calls for %d blocks", st.SyncCalls, length)
	}
}

// TestPullBranchSurfacesNoHandler: bc.getrange is the only sync protocol, so
// a peer that does not serve it fails the pull with ErrNoHandler after one
// call — no probing, no fallback.
func TestPullBranchSurfacesNoHandler(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 13})
	defer net.Close()
	if _, err := net.Register("mute-peer"); err != nil {
		t.Fatal(err)
	}
	joiner, err := NewNode(NodeConfig{Name: "joiner", Chain: testChainConfig(t, alice), Network: net,
		Peers: []string{"joiner", "mute-peer"}})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	err = joiner.pullBranch("mute-peer", crypto32(0xee), 1, nil)
	if !errors.Is(err, transport.ErrNoHandler) {
		t.Fatalf("pull from a peer without bc.getrange: %v, want ErrNoHandler", err)
	}
	if st := joiner.Stats(); st.SyncCalls != 1 || joiner.chain.Height() != 0 {
		t.Fatalf("SyncCalls = %d, height = %d; want one call and no progress", st.SyncCalls, joiner.chain.Height())
	}
}

// TestStopAbortsInFlightSyncCall: a catch-up call to a peer that never
// answers (it stopped first, or its reply was lost with the network) must
// not outlive the node — Stop cancels it instead of leaving the caller to
// wait out syncCallTimeout.
func TestStopAbortsInFlightSyncCall(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	net := netsim.New(netsim.Config{Seed: 14})
	release := make(chan struct{})
	defer net.Close()
	defer close(release) // lets the wedged handler's delivery goroutine end
	ep, err := net.Register("wedged")
	if err != nil {
		t.Fatal(err)
	}
	ep.OnCall(kindHead, func(string, []byte) ([]byte, error) {
		return headInfo{Hash: crypto32(0xee), Height: 9}.encode(), nil
	})
	inFlight := make(chan struct{})
	var once sync.Once
	ep.OnCall(kindGetRange, func(string, []byte) ([]byte, error) {
		once.Do(func() { close(inFlight) })
		<-release
		return nil, errors.New("too late")
	})
	joiner, err := NewNode(NodeConfig{Name: "joiner", Chain: testChainConfig(t, alice), Network: net,
		Peers: []string{"joiner", "wedged"}})
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- joiner.SyncFrom("wedged") }()
	<-inFlight

	start := time.Now()
	joiner.Stop()
	select {
	case err := <-synced:
		if err == nil {
			t.Fatal("sync from a wedged peer succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("bc.getrange call still in flight 1 s after Stop")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Stop plus call abort took %v", d)
	}
}
