package blockchain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"drams/internal/crypto"
)

// The block log keeps a node's best chain across restarts. It is one file: a
// header (logMagic, then the log format byte) followed by one record per
// best-chain block after genesis, in height order. The framing follows the
// LevelDB log format, without its fixed-size blocks:
//
//	u32 length | u32 CRC-32C of the payload | payload (Block.Encode bytes)
//
// big-endian, like the block codec. Genesis is derived from Config, so a log
// from another federation fails validation on its first record. Side
// branches are not logged: a restarted node re-learns them from its peers,
// and fork choice is deterministic.
//
// The file holds the best chain and nothing else. After every best-chain
// change, syncLogLocked cuts it at the first height whose logged block is
// not the best chain's and appends the rest: one rule for an extension, a
// reorganisation and a retry after a failed write. Each record is one
// write(2), made under the chain lock, with no fsync: a process crash loses
// nothing that was written, and a host crash can lose an unsynced tail,
// which replay drops and peers refill.

const (
	logMagic          = "DRAMSLOG"
	logFormat    byte = 0x01
	recordHeader      = 8 // u32 length + u32 CRC-32C
)

var (
	logHeader = append([]byte(logMagic), logFormat)
	crc32c    = crc32.MakeTable(crc32.Castagnoli)
)

// blockLog is an open block log. index[h-1] locates the record of height h.
type blockLog struct {
	f     *os.File
	index []logEntry
	end   int64 // offset just past the last indexed record
	torn  bool  // a failed write may have left bytes past end
}

type logEntry struct {
	off  int64
	hash crypto.Digest
}

// logRecord is one intact record as framed in the file.
type logRecord struct {
	off     int64
	payload []byte
}

// logReplay reports what opening a block log loaded into the chain.
type logReplay struct {
	loaded, dropped int
	// stopped says why replay ended before the end of the file (nil if it
	// did not).
	stopped error
}

// openBlockLog opens the block log at path, creating it if missing, replays
// it into c and attaches it to c, which from then on writes every
// best-chain change through. Each record runs through AddBlock, so a logged
// block is validated like a gossiped one. Replay stops at the first record
// that is short, fails its checksum, does not decode, or does not extend the
// block before it; the file is cut there and the records from that point on
// count as dropped. A file that does not start with the log header is
// refused by name and replaced by an empty log: the node starts from genesis
// and resyncs from its peers. The error is an I/O failure, which leaves c
// without a log.
func openBlockLog(c *Chain, path string) (logReplay, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return logReplay{}, fmt.Errorf("blockchain: block log: %w", err)
	}
	var rep logReplay
	var recs []logRecord
	recs, rep.dropped, rep.stopped = scanLog(data)
	l := &blockLog{end: int64(len(logHeader))}
	for i, r := range recs {
		hash, err := c.replayBlock(r.payload)
		if err != nil {
			rep.dropped += len(recs) - i
			rep.stopped = fmt.Errorf("blockchain: block log height %d: %w", i+1, err)
			break
		}
		l.index = append(l.index, logEntry{off: r.off, hash: hash})
		l.end = r.off + recordHeader + int64(len(r.payload))
	}
	rep.loaded = len(l.index)

	if l.f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return rep, fmt.Errorf("blockchain: block log: %w", err)
	}
	switch {
	case !bytes.HasPrefix(data, logHeader):
		// New, torn at creation, or refused: start the file over.
		err = l.f.Truncate(0)
		if err == nil {
			_, err = l.f.WriteAt(logHeader, 0)
		}
	case l.end < int64(len(data)):
		err = l.f.Truncate(l.end)
	}
	if err != nil {
		l.f.Close()
		return rep, fmt.Errorf("blockchain: block log: %w", err)
	}
	c.mu.Lock()
	c.log = l
	c.mu.Unlock()
	return rep, nil
}

// scanLog frames the records of a block log file. It returns the records up
// to the first one that is short or fails its checksum, how many records lie
// from that point on as framed by their length fields (a torn last one
// included), and why the scan stopped early. An empty file, or one holding a
// torn header, is an empty log; any other file without the header is
// refused whole, and the error names what it starts with.
func scanLog(data []byte) (recs []logRecord, dropped int, stopped error) {
	if len(data) < len(logHeader) && bytes.HasPrefix(logHeader, data) {
		return nil, 0, nil
	}
	if !bytes.HasPrefix(data, logHeader) {
		return nil, 0, refuseLog(data)
	}
	for off := len(logHeader); off < len(data); {
		rest := data[off:]
		if len(rest) < recordHeader || uint64(binary.BigEndian.Uint32(rest)) > uint64(len(rest)-recordHeader) {
			return recs, countRecords(rest), fmt.Errorf("blockchain: block log: short record at offset %d", off)
		}
		end := recordHeader + int(binary.BigEndian.Uint32(rest))
		payload := rest[recordHeader:end:end]
		if crc32.Checksum(payload, crc32c) != binary.BigEndian.Uint32(rest[4:]) {
			return recs, countRecords(rest), fmt.Errorf("blockchain: block log: bad checksum at offset %d", off)
		}
		recs = append(recs, logRecord{off: int64(off), payload: payload})
		off += end
	}
	return recs, 0, nil
}

// refuseLog names what a file that is not a block log starts with.
func refuseLog(data []byte) error {
	if bytes.HasPrefix(data, []byte(logMagic)) {
		return fmt.Errorf("blockchain: block log format 0x%02x, this build reads 0x%02x", data[len(logMagic)], logFormat)
	}
	var what string
	if data[0] == '{' {
		what = ", the JSON-lines WAL of an older build"
	}
	return fmt.Errorf("blockchain: not a block log: the file starts with %q%s", data[:min(len(data), len(logHeader))], what)
}

// countRecords counts the records of a log tail as framed by their length
// fields, a torn last one included.
func countRecords(tail []byte) int {
	n := 0
	for len(tail) > 0 {
		n++
		if len(tail) < recordHeader {
			break
		}
		size := recordHeader + uint64(binary.BigEndian.Uint32(tail))
		if size > uint64(len(tail)) {
			break
		}
		tail = tail[size:]
	}
	return n
}

// replayBlock decodes a logged block and adds it to c, which keeps the
// record's payload as the block's frame. The log holds one chain in height
// order, so a block that does not extend the head is refused even if it
// would be a valid side branch.
func (c *Chain) replayBlock(payload []byte) (crypto.Digest, error) {
	b, err := DecodeBlock(payload)
	if err != nil {
		return crypto.Digest{}, err
	}
	hash := b.Hash()
	if head, _ := c.Head(); b.Header.PrevHash != head {
		return crypto.Digest{}, fmt.Errorf("block %s does not extend the logged chain", hash.Short())
	}
	if err := c.addBlock(b, hash, payload); err != nil {
		return crypto.Digest{}, err
	}
	return hash, nil
}

// syncLogLocked brings the block log up to the best chain: it cuts the log
// at the first height whose logged block is not the best chain's, then
// appends the best chain above it. Each logged block extends the one before,
// so a logged hash that matches vouches for every height below it, and the
// search runs down from the top. A failed write is counted and left for the
// next change to retry; the in-memory chain stays authoritative. Caller
// holds c.mu.
func (c *Chain) syncLogLocked() {
	l := c.log
	if l == nil {
		return
	}
	keep := min(len(l.index), len(c.bestChain)-1)
	for keep > 0 && l.index[keep-1].hash != c.bestChain[keep] {
		keep--
	}
	if err := l.cut(keep); err != nil {
		c.persistErrs.Inc()
		return
	}
	for _, hash := range c.bestChain[keep+1:] {
		if err := l.append(hash, c.blocks[hash].frame); err != nil {
			c.persistErrs.Inc()
			return
		}
		c.persisted.Inc()
	}
}

// cut drops the records above height keep, and whatever a failed write left
// past the last record.
func (l *blockLog) cut(keep int) error {
	if keep == len(l.index) && !l.torn {
		return nil
	}
	end := l.end
	if keep < len(l.index) {
		end = l.index[keep].off
	}
	if err := l.f.Truncate(end); err != nil {
		return err
	}
	l.index, l.end, l.torn = l.index[:keep], end, false
	return nil
}

// append writes one record at the end of the log, in one write.
func (l *blockLog) append(hash crypto.Digest, payload []byte) error {
	rec := make([]byte, recordHeader, recordHeader+len(payload))
	binary.BigEndian.PutUint32(rec, uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:], crc32.Checksum(payload, crc32c))
	rec = append(rec, payload...)
	if _, err := l.f.WriteAt(rec, l.end); err != nil {
		l.torn = true
		return err
	}
	l.index = append(l.index, logEntry{off: l.end, hash: hash})
	l.end += int64(len(rec))
	return nil
}

// closeLog detaches and closes the block log; the chain stays in memory.
func (c *Chain) closeLog() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return
	}
	if err := c.log.f.Close(); err != nil {
		c.persistErrs.Inc()
	}
	c.log = nil
}

// TruncateBlockLog cuts the block log at path after height, as a crash
// before the writes of the heights above it would have left the file. It
// frames the file with the log's own reader and fails if the intact records
// end below height.
//
//lint:ignore deadcode crash rig: the root package's member restart test cuts a member's log with the log's own framing
func TruncateBlockLog(path string, height uint64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs, _, stopped := scanLog(data)
	switch {
	case uint64(len(recs)) < height:
		return fmt.Errorf("blockchain: block log holds %d intact records, not %d (%v)", len(recs), height, stopped)
	case uint64(len(recs)) == height:
		return nil
	}
	return os.Truncate(path, recs[height].off)
}
