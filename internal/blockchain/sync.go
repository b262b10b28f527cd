package blockchain

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"drams/internal/crypto"
	"drams/internal/wire"
)

// Catch-up protocol. A node that (re)joins — fresh, after a restart from
// its data dir, or after a partition — pulls the missing suffix of the best
// chain from a peer. The wire protocol is bc.getrange: one Call returns up
// to SyncBatch encoded blocks walking parent links backwards (descending
// height) from a cursor hash, so rejoin time is dominated by validation
// throughput instead of per-block round-trips. A pull asks for as many
// blocks as it is behind the cursor (see pullBranch): a rejoin gets full
// windows, a gossiped block that overtook its parent costs one block, not a
// window the requester already holds. The fetched branch is then
// applied oldest-first through Chain.AddBlock, i.e. with exactly the
// validation (signatures via the TxVerifier pipeline, PoW, difficulty, the
// replay rule) gossiped blocks get. It is the only sync protocol: a peer
// that does not serve bc.getrange answers transport.ErrNoHandler, and the
// pull fails with that error.

// maxRangeServe clamps how many blocks one bc.getrange call returns,
// whatever the requester asked for.
const maxRangeServe = 512

// maxRangeBytes soft-caps the encoded payload of one range response so it
// stays well under transport frame limits (TCP caps frames at 32 MiB)
// whatever the block size. At least one block is always served; the
// requester keeps issuing windows until the branch attaches, so a
// shorter-than-asked response only costs extra round-trips, never progress.
const maxRangeBytes = 4 << 20

// syncCallTimeout bounds each catch-up Call; Stop ends one sooner.
const syncCallTimeout = 10 * time.Second

// rangeReq asks for up to Count blocks starting at Cursor (inclusive) and
// walking PrevHash links backwards; a Count of 0 or above maxRangeServe
// asks for maxRangeServe.
type rangeReq struct {
	Cursor crypto.Digest
	Count  uint64
}

// encode serialises the request (codec.go's range req layout).
func (q rangeReq) encode() []byte {
	buf := make([]byte, 0, 1+crypto.DigestSize+wire.UvarintLen(q.Count))
	buf = append(append(buf, codecVersion), q.Cursor[:]...)
	return binary.AppendUvarint(buf, q.Count)
}

// decodeRangeReq parses a bc.getrange request.
func decodeRangeReq(data []byte) (rangeReq, error) {
	r := wire.NewReader(data)
	if err := readTag(&r, "range request"); err != nil {
		return rangeReq{}, err
	}
	var q rangeReq
	copy(q.Cursor[:], r.Bytes(crypto.DigestSize))
	q.Count = r.Uvarint()
	if err := r.End(); err != nil {
		return rangeReq{}, fmt.Errorf("blockchain: decode range request: %w", err)
	}
	return q, nil
}

// encodeRangeResp serialises a bc.getrange response: the encoded blocks,
// descending from the cursor. Fewer than asked come back when the walk
// reaches genesis (which is never shipped — every member derives it from
// Config) or the serving cap.
func encodeRangeResp(blocks [][]byte) []byte {
	n := 1 + wire.UvarintLen(uint64(len(blocks)))
	for _, enc := range blocks {
		n += wire.StrLen(len(enc))
	}
	buf := binary.AppendUvarint(append(make([]byte, 0, n), codecVersion), uint64(len(blocks)))
	for _, enc := range blocks {
		buf = wire.AppendBlob(buf, enc)
	}
	return buf
}

// decodeRangeResp parses a bc.getrange response. Each block is its slice of
// data. A response of more blocks than a server sends is refused before
// anything is allocated for them.
func decodeRangeResp(data []byte) ([][]byte, error) {
	r := wire.NewReader(data)
	if err := readTag(&r, "range response"); err != nil {
		return nil, err
	}
	n := r.Count(1)
	if n > maxRangeServe {
		return nil, fmt.Errorf("blockchain: decode range response: %d blocks, a server sends at most %d", n, maxRangeServe)
	}
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = r.Blob()
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("blockchain: decode range response: %w", err)
	}
	return blocks, nil
}

// handleGetRange serves a descending window of blocks for batched catch-up.
func (n *Node) handleGetRange(from string, payload []byte) ([]byte, error) {
	req, err := decodeRangeReq(payload)
	if err != nil {
		return nil, err
	}
	count := req.Count
	if count == 0 || count > maxRangeServe {
		count = maxRangeServe
	}
	var blocks [][]byte
	cursor := req.Cursor
	total := 0
	for uint64(len(blocks)) < count {
		s, ok := n.chain.stored(cursor)
		if !ok {
			if len(blocks) == 0 {
				return nil, fmt.Errorf("blockchain: getrange %s: not found", cursor.Short())
			}
			break
		}
		if s.header.Height == 0 {
			break
		}
		if len(blocks) > 0 && total+len(s.frame) > maxRangeBytes {
			break
		}
		blocks = append(blocks, s.frame)
		total += len(s.frame)
		cursor = s.header.PrevHash
	}
	return encodeRangeResp(blocks), nil
}

// syncCall issues one catch-up Call with the protocol timeout, counting it.
func (n *Node) syncCall(peer, kind string, payload []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(n.ctx, syncCallTimeout)
	defer cancel()
	n.syncCalls.Inc()
	return n.ep.Call(ctx, peer, kind, payload)
}

// fetchAncestors returns up to count blocks descending from cursor
// (inclusive), verifying hash linkage so a lying peer cannot inject blocks
// outside the requested branch. A response longer than asked is refused
// before any block is decoded: each block's frame is its slice of the
// response, so whatever the chain keeps of a response pins all of it.
func (n *Node) fetchAncestors(peer string, cursor crypto.Digest, count int) ([]framedBlock, error) {
	raw, err := n.syncCall(peer, kindGetRange, rangeReq{Cursor: cursor, Count: uint64(count)}.encode())
	if err != nil {
		return nil, err
	}
	encs, err := decodeRangeResp(raw)
	if err != nil {
		return nil, fmt.Errorf("blockchain: range from %q: %w", peer, err)
	}
	if len(encs) > count {
		return nil, fmt.Errorf("blockchain: range from %q: %d blocks, asked for %d", peer, len(encs), count)
	}
	blocks := make([]framedBlock, 0, len(encs))
	want := cursor
	for _, enc := range encs {
		b, err := DecodeBlock(enc)
		if err != nil {
			return nil, fmt.Errorf("blockchain: range from %q: %w", peer, err)
		}
		if hash := b.Hash(); hash != want {
			return nil, fmt.Errorf("blockchain: range from %q: block %s off-branch (want %s)",
				peer, hash.Short(), want.Short())
		}
		blocks = append(blocks, framedBlock{b, want, enc})
		want = b.Header.PrevHash
	}
	n.syncBlocks.Add(int64(len(blocks)))
	return blocks, nil
}

// pullBranch fetches the ancestry of cursor from peer in batched descending
// windows until it attaches to a locally-known block, then applies the
// whole suffix oldest-first through full validation. pending holds
// already-held descendants of cursor, newest first (the orphan that
// triggered the pull). The walk is bounded by SyncDepth blocks.
//
// cursorHeight is the height the peer claims for cursor. The first window
// asks for the height difference to the local head — exactly the missing
// blocks when the branch extends the local best chain — and every further
// window doubles, so a fork that attaches deeper than that is still reached
// in O(log depth) calls. SyncBatch caps every window. A wrong claim only
// costs round-trips: what attaches is decided by hashes.
//
// One pull runs per node at a time. A caller that waited finds, as anybody
// does, what the pull before it left behind: the loop's first statement
// asks whether the cursor is attached by now.
func (n *Node) pullBranch(peer string, cursor crypto.Digest, cursorHeight uint64, pending []framedBlock) error {
	select {
	case n.pulling <- struct{}{}:
		defer func() { <-n.pulling }()
	case <-n.stop:
		return ErrStopped
	}
	window := 1
	if local := n.chain.Height(); cursorHeight > local {
		window = int(min(cursorHeight-local, uint64(n.cfg.SyncBatch)))
	}
	for {
		if _, ok := n.chain.stored(cursor); ok {
			break // attached
		}
		if len(pending) >= n.cfg.SyncDepth {
			return fmt.Errorf("blockchain: branch from %q exceeds sync depth %d", peer, n.cfg.SyncDepth)
		}
		fetched, err := n.fetchAncestors(peer, cursor, window)
		if err != nil {
			return err
		}
		if len(fetched) == 0 {
			return fmt.Errorf("blockchain: branch from %q does not attach (empty range at %s)", peer, cursor.Short())
		}
		for _, fb := range fetched {
			pending = append(pending, fb)
			cursor = fb.Header.PrevHash
			if _, ok := n.chain.stored(cursor); ok {
				break
			}
		}
		window = min(2*window, n.cfg.SyncBatch)
	}
	// Apply oldest-first; each block passes the normal AddBlock validation.
	// A block that arrived by another route meanwhile is known: it was
	// counted and relayed where it was inserted. An inserted block is
	// relayed in the frame the chain keeps, its slice of the range
	// response.
	inserted := make([][]byte, 0, len(pending))
	defer func() { n.afterAccept(peer, inserted...) }()
	for i := len(pending) - 1; i >= 0; i-- {
		fb := pending[i]
		switch err := n.chain.addBlock(fb.Block, fb.hash, fb.frame); {
		case err == nil:
			inserted = append(inserted, fb.frame)
		case !errors.Is(err, ErrKnownBlock):
			n.rejected.Inc()
			return fmt.Errorf("blockchain: apply synced block %s: %w", fb.hash.Short(), err)
		}
	}
	return nil
}

// resolveOrphans pulls the missing ancestors of orphan fb from the peer
// that gossiped it and applies the branch, fb last.
func (n *Node) resolveOrphans(fb framedBlock, peer string) {
	if err := n.pullBranch(peer, fb.Header.PrevHash, fb.Header.Height-1, []framedBlock{fb}); err == nil {
		n.orphans.Inc()
	}
}

// fetchHead asks peer for its best-chain tip.
func (n *Node) fetchHead(peer string) (headInfo, error) {
	raw, err := n.syncCall(peer, kindHead, nil)
	if err != nil {
		return headInfo{}, err
	}
	hi, err := decodeHeadInfo(raw)
	if err != nil {
		return headInfo{}, err
	}
	n.noteSeenHeight(hi.Height)
	return hi, nil
}

// syncAttempts bounds how often SyncFrom chases a peer whose head keeps
// advancing mid-sync before settling for the progress already made.
const syncAttempts = 3

// SyncFrom pulls the peer's best chain and imports it (used by nodes that
// join or restart). Blocks arrive in batched ranges and are validated
// oldest-first. A peer that mines on while we sync is tolerated: the pull
// is retried against the advanced head a bounded number of times, and if
// the peer still outruns us, having imported a valid suffix counts as
// success — the remaining blocks arrive through normal gossip.
func (n *Node) SyncFrom(peer string) error {
	startHeight := n.chain.Height()
	var lastErr error
	for attempt := 0; attempt < syncAttempts; attempt++ {
		hi, err := n.fetchHead(peer)
		if err != nil {
			return fmt.Errorf("blockchain: sync from %q: %w", peer, err)
		}
		if _, ok := n.chain.stored(hi.Hash); ok {
			return nil // already have their head
		}
		if err := n.pullBranch(peer, hi.Hash, hi.Height, nil); err != nil {
			lastErr = err
		}
		if _, ok := n.chain.stored(hi.Hash); ok {
			return nil // converged on the head we were told about
		}
		// The head the peer reported is gone (reorged away) or the pull
		// raced new blocks; go around and chase the fresh head.
	}
	if n.chain.Height() > startHeight {
		// Accept progress: a valid suffix was imported even though the
		// peer's head kept moving; gossip delivers the rest.
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("peer head kept advancing")
	}
	return fmt.Errorf("blockchain: sync from %q did not converge: %w", peer, lastErr)
}
