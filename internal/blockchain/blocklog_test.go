package blockchain

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drams/internal/crypto"
	"drams/internal/netsim"
)

// buildTestChain mines a chain of blocks, one transaction each. With a
// non-empty path the chain writes every block to the block log there as it
// joins the best chain; the log is closed when the test ends.
func buildTestChain(t testing.TB, blocks int, path string) *Chain {
	t.Helper()
	alice := testIdentity(t, "alice", 1)
	c := NewChain(testChainConfig(t, alice))
	if path != "" {
		if _, err := openBlockLog(c, path); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.closeLog)
	}
	parent := c.Genesis()
	for i := 1; i <= blocks; i++ {
		tx, err := NewTransaction(alice, uint64(i), putCall(fmt.Sprintf("k%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		b := mineChild(t, c, parent, tx)
		if err := c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		parent = b.Hash()
	}
	return c
}

// buildReorgedChain logs a chain that reorganised once: six blocks, then a
// longer branch forking after height 4 takes the head at height 8, so the
// log was cut at height 5 and appended to. The branch's last block is empty.
func buildReorgedChain(t testing.TB, path string) *Chain {
	t.Helper()
	alice := testIdentity(t, "alice", 1)
	c := buildTestChain(t, 6, path)
	parent := c.BestChainHashes()[4]
	for i := 0; i < 4; i++ {
		var txs []Transaction
		if i < 3 {
			tx, err := NewTransaction(alice, 4, putCall(fmt.Sprintf("branch-%d", i), "v"))
			if err != nil {
				t.Fatal(err)
			}
			txs = append(txs, tx)
		}
		b := mineChild(t, c, parent, txs...)
		if err := c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		parent = b.Hash()
	}
	if head, height := c.Head(); head != parent || height != 8 {
		t.Fatalf("head at height %d is not the branch's tip", height)
	}
	return c
}

// reopenLog replays the block log at path into a fresh chain and closes it.
func reopenLog(t testing.TB, path string) (*Chain, logReplay) {
	t.Helper()
	c := NewChain(testChainConfig(t, testIdentity(t, "alice", 1)))
	rep, err := openBlockLog(c, path)
	if err != nil {
		t.Fatal(err)
	}
	c.closeLog()
	return c, rep
}

// writeLog writes a block log holding payloads as its records, through the
// log's own writer.
func writeLog(t testing.TB, path string, payloads [][]byte) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(logHeader); err != nil {
		t.Fatal(err)
	}
	l := &blockLog{f: f, end: int64(len(logHeader))}
	for _, p := range payloads {
		if err := l.append(crypto.Digest{}, p); err != nil {
			t.Fatal(err)
		}
	}
}

// readLog returns the payloads of the block log's intact records.
func readLog(t testing.TB, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := scanLog(data)
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = r.payload
	}
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.wal")
	src := buildTestChain(t, 5, path)
	dst, rep := reopenLog(t, path)
	if rep.loaded != 5 || rep.dropped != 0 || rep.stopped != nil {
		t.Fatalf("replay %+v, want 5 loaded", rep)
	}
	if dst.Height() != 5 || dst.StateDigest() != src.StateDigest() {
		t.Fatal("restored chain differs")
	}
	if dh, _ := dst.Head(); dh != src.BestChainHashes()[5] {
		t.Fatal("restored head differs")
	}
}

// TestLoadEmptyStore: a missing log is created holding only its header.
func TestLoadEmptyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.wal")
	c, rep := reopenLog(t, path)
	if rep.loaded != 0 || rep.dropped != 0 || rep.stopped != nil || c.Height() != 0 {
		t.Fatalf("replay %+v at height %d", rep, c.Height())
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, logHeader) {
		t.Fatalf("new log holds %q, %v", data, err)
	}
}

// TestLoadRejectsTamperedSnapshot: a flipped byte in a logged block fails
// its record's checksum, and replay keeps the heights below it.
func TestLoadRejectsTamperedSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.wal")
	buildTestChain(t, 4, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := scanLog(data)
	data[recs[1].off+recordHeader+40] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, rep := reopenLog(t, path)
	if rep.loaded != 1 || rep.dropped != 3 || c.Height() != 1 ||
		rep.stopped == nil || !strings.Contains(rep.stopped.Error(), "bad checksum") {
		t.Fatalf("replay %+v at height %d, want 1 loaded, 3 dropped on a bad checksum", rep, c.Height())
	}
}

// TestLoadMissingBlockFails: a log missing a height holds a block that does
// not extend the one before it, and replay stops there.
func TestLoadMissingBlockFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.wal")
	buildTestChain(t, 4, path)
	logged := readLog(t, path)
	writeLog(t, path, append(logged[:1:1], logged[2:]...))
	c, rep := reopenLog(t, path)
	if rep.loaded != 1 || rep.dropped != 2 || c.Height() != 1 ||
		rep.stopped == nil || !strings.Contains(rep.stopped.Error(), "height 2") {
		t.Fatalf("replay %+v at height %d, want 1 loaded and 2 dropped at height 2", rep, c.Height())
	}
}

// TestSaveLoadThroughWALFile: a log that replays whole is left byte for
// byte as it was, and the reopened chain appends to it.
func TestSaveLoadThroughWALFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.wal")
	src := buildTestChain(t, 3, path)
	src.closeLog()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	alice := testIdentity(t, "alice", 1)
	dst := NewChain(testChainConfig(t, alice))
	if rep, err := openBlockLog(dst, path); err != nil || rep.loaded != 3 {
		t.Fatalf("replay %+v, %v", rep, err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("a clean replay rewrote the log")
	}
	tx, err := NewTransaction(alice, 3, putCall("k4", "v"))
	if err != nil {
		t.Fatal(err)
	}
	b4 := mineChild(t, dst, dst.BestChainHashes()[3], tx)
	if err := dst.AddBlock(b4); err != nil {
		t.Fatal(err)
	}
	dst.closeLog()
	if logged := readLog(t, path); len(logged) != 4 || !bytes.Equal(logged[3], b4.Encode()) {
		t.Fatalf("log holds %d records after the reopened chain grew to 4", len(logged))
	}
	if c, _ := reopenLog(t, path); c.StateDigest() != dst.StateDigest() {
		t.Fatal("log round trip lost state")
	}
}

// TestReorgRewritesPersistedHeights: a reorganisation cuts the log where
// the new best chain leaves the old and appends the new suffix. The chain
// first moves to an equal-height sibling that wins the hash tie-break, then
// to a longer branch forking lower down. The log then holds exactly heights
// 1..head of the new best chain, and reopens onto its head and state.
func TestReorgRewritesPersistedHeights(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	path := filepath.Join(t.TempDir(), "chain.wal")
	c := buildTestChain(t, 3, path)
	old := c.BestChainHashes()

	var sibling *Block
	for i := 0; sibling == nil; i++ {
		tx, err := NewTransaction(alice, 2, putCall(fmt.Sprintf("sibling-%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		if b := mineChild(t, c, old[2], tx); bytes.Compare(b.Hash().Bytes(), old[3].Bytes()) < 0 {
			sibling = b
		}
	}
	if err := c.AddBlock(sibling); err != nil {
		t.Fatal(err)
	}
	if h, _ := c.Head(); h != sibling.Hash() {
		t.Fatal("the sibling with the smaller hash did not take the head")
	}

	parent := old[1]
	for i := 0; i < 3; i++ {
		tx, err := NewTransaction(alice, 1, putCall(fmt.Sprintf("branch-%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		b := mineChild(t, c, parent, tx)
		if err := c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		parent = b.Hash()
	}
	head, height := c.Head()
	if head != parent || height != 4 {
		t.Fatalf("head at height %d is not the longer branch's tip", height)
	}
	// 3 blocks, the sibling at height 3, then heights 2..4 of the branch.
	if n, errs := c.persisted.Value(), c.persistErrs.Value(); n != 7 || errs != 0 {
		t.Fatalf("%d blocks written, %d errors; want 7 and 0", n, errs)
	}

	logged := readLog(t, path)
	if len(logged) != 4 {
		t.Fatalf("log holds %d records, want heights 1..4", len(logged))
	}
	for h := uint64(1); h <= 4; h++ {
		if b, _ := c.BlockByHeight(h); !bytes.Equal(logged[h-1], b.Encode()) {
			t.Fatalf("logged block at height %d is not the best chain's", h)
		}
	}
	dst, rep := reopenLog(t, path)
	if dh, _ := dst.Head(); rep.loaded != 4 || dh != head {
		t.Fatalf("reopened %d blocks onto %s, want 4 onto %s", rep.loaded, dh.Short(), head.Short())
	}
	if dst.StateDigest() != c.StateDigest() {
		t.Fatal("reopened state differs")
	}
}

// TestBlockLogRetriesAfterFailedWrite: a write that fails leaves the log
// behind the best chain, maybe with a partial record past its end. The next
// best-chain change cuts that and writes every missing height.
func TestBlockLogRetriesAfterFailedWrite(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	path := filepath.Join(t.TempDir(), "chain.wal")
	c := buildTestChain(t, 2, path)
	good := c.log.f
	readOnly, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c.log.f = readOnly
	next := func(key string) {
		t.Helper()
		tx, err := NewTransaction(alice, c.Height(), putCall(key, "v"))
		if err != nil {
			t.Fatal(err)
		}
		head, _ := c.Head()
		if err := c.AddBlock(mineChild(t, c, head, tx)); err != nil {
			t.Fatal(err)
		}
	}
	next("k3")
	if errs := c.persistErrs.Value(); errs != 1 {
		t.Fatalf("%d persist errors, want 1", errs)
	}
	readOnly.Close()
	if _, err := good.WriteAt([]byte{0, 0, 1}, c.log.end); err != nil { // the partial record
		t.Fatal(err)
	}
	c.log.f = good
	next("k4")
	c.closeLog()
	dst, rep := reopenLog(t, path)
	if rep.loaded != 4 || rep.dropped != 0 || dst.StateDigest() != c.StateDigest() {
		t.Fatalf("replay %+v after the retry, want all 4 heights", rep)
	}
}

// TestCrashPointSweep cuts a logged chain, with one reorganisation in its
// history, wherever a crash or a bad disk can: at every record boundary, at
// every byte of the last record, and by flipping one byte in a middle
// record. Each time the node reopens onto exactly the intact prefix, counts
// the rest as dropped, catches up from a peer to the peer's state, and
// leaves a log that reopens to the whole chain.
func TestCrashPointSweep(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	path := filepath.Join(t.TempDir(), "chain.wal")
	src := buildReorgedChain(t, path)
	src.closeLog()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := scanLog(full)
	if len(recs) != 8 {
		t.Fatalf("log holds %d records, want 8", len(recs))
	}

	net := netsim.New(netsim.Config{Seed: 15})
	defer net.Close()
	peers := []string{"peer", "n"}
	peer, err := NewNode(NodeConfig{Name: "peer", Chain: testChainConfig(t, alice), Network: net, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Stop()
	for _, h := range src.BestChainHashes()[1:] {
		b, _ := src.BlockByHash(h)
		if err := peer.Chain().AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}

	type crash struct {
		name            string
		data            []byte
		loaded, dropped int
	}
	start := func(i int) int { return int(recs[i].off) }
	crashes := []crash{{"torn header", full[:len(logHeader)-1], 0, 0}}
	for k := 0; k < len(recs); k++ {
		crashes = append(crashes, crash{fmt.Sprintf("boundary %d", k), full[:start(k)], k, 0})
	}
	crashes = append(crashes, crash{"boundary 8", full, 8, 0})
	for n := start(7) + 1; n < len(full); n++ {
		crashes = append(crashes, crash{fmt.Sprintf("byte %d of the last record", n-start(7)), full[:n], 7, 1})
	}
	flipped := bytes.Clone(full)
	flipped[start(3)+recordHeader+50] ^= 0x01
	crashes = append(crashes, crash{"flipped byte at height 4", flipped, 3, 5})

	for _, cr := range crashes {
		if err := os.WriteFile(path, cr.data, 0o644); err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(NodeConfig{Name: "n", Chain: testChainConfig(t, alice), Network: net, Peers: peers, BlockLog: path})
		if err != nil {
			t.Fatalf("%s: %v", cr.name, err)
		}
		st := node.Stats()
		if st.BlocksReloaded != int64(cr.loaded) || st.ReloadDropped != int64(cr.dropped) || node.chain.Height() != uint64(cr.loaded) {
			t.Fatalf("%s: reloaded %d, dropped %d, height %d; want %d/%d", cr.name,
				st.BlocksReloaded, st.ReloadDropped, node.chain.Height(), cr.loaded, cr.dropped)
		}
		if err := node.SyncFrom("peer"); err != nil {
			t.Fatalf("%s: %v", cr.name, err)
		}
		if node.chain.StateDigest() != peer.Chain().StateDigest() {
			t.Fatalf("%s: state differs from the peer's after catch-up", cr.name)
		}
		node.Stop()
		net.Unregister("n")
		if c, rep := reopenLog(t, path); rep.loaded != 8 || rep.dropped != 0 || c.StateDigest() != peer.Chain().StateDigest() {
			t.Fatalf("%s: the refilled log reopens as %+v", cr.name, rep)
		}
	}
}

// FuzzBlockLogReplay feeds arbitrary bytes after the log header to open.
// It must never panic, and the blocks it loads must re-encode to a byte
// prefix of the input's records, which is all the file keeps. Each input
// is tried as it is and with every framed record's checksum made to match,
// so mutations also reach the decoder and AddBlock.
func FuzzBlockLogReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	buildTestChain(f, 3, path).closeLog()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := seed[len(logHeader):]
	f.Add(body)
	f.Add(body[:len(body)-7])
	f.Add(append(bytes.Clone(body), 0, 0, 0, 9, 1, 2))
	f.Add([]byte(`{"op":"put","key":"head","value":"AAAAAAAAAAM="}` + "\n"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte(nil))
	cfg := testChainConfig(f, testIdentity(f, "alice", 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		fixed := bytes.Clone(data)
		for off := 0; len(fixed)-off >= recordHeader; {
			end := off + recordHeader + int(binary.BigEndian.Uint32(fixed[off:]))
			if end > len(fixed) || end < off {
				break
			}
			binary.BigEndian.PutUint32(fixed[off+4:], crc32.Checksum(fixed[off+recordHeader:end], crc32c))
			off = end
		}
		for _, data := range [][]byte{data, fixed} {
			replayFuzzInput(t, cfg, data)
		}
	})
}

func replayFuzzInput(t *testing.T, cfg Config, data []byte) {
	path := filepath.Join(t.TempDir(), "chain.wal")
	if err := os.WriteFile(path, append(bytes.Clone(logHeader), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewChain(cfg)
	rep, err := openBlockLog(c, path)
	if err != nil {
		t.Fatal(err)
	}
	c.closeLog()
	if c.Height() != uint64(rep.loaded) {
		t.Fatalf("height %d after loading %d blocks", c.Height(), rep.loaded)
	}
	off := 0
	for h := uint64(1); h <= c.Height(); h++ {
		b, _ := c.BlockByHeight(h)
		enc := b.Encode()
		if len(data)-off < recordHeader || binary.BigEndian.Uint32(data[off:]) != uint32(len(enc)) ||
			!bytes.Equal(data[off+recordHeader:min(len(data), off+recordHeader+len(enc))], enc) {
			t.Fatalf("loaded block %d does not re-encode to input record %d", h, h)
		}
		off += recordHeader + len(enc)
	}
	kept, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(bytes.Clone(logHeader), data[:off]...); !bytes.Equal(kept, want) {
		t.Fatalf("file keeps %d bytes after loading %d blocks, want %d", len(kept), rep.loaded, len(want))
	}
}
