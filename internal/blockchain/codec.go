package blockchain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"drams/internal/crypto"
)

// Wire codec for blocks and transactions.
//
// The hot path (gossip, bc.getrange sync, the block log) uses a
// length-prefixed binary encoding in the style of the TCP frame codec:
// append-to-caller-buffer writers, exact-size pre-computation (one
// allocation per encode) and zero-copy []byte reads on decode. The first
// byte of every encoding is a format tag:
//
//	0x04        binary codec v4 (this file)
//
// and decoders reject every other tag, so a layout change bumps the tag and
// builds on either side refuse the other's bytes instead of misreading them.
// Older tags are refused here, by name: 0x01 (a per-sender u64 nonce where
// the salt and expiry now sit, and an ID over a JSON encoding of the call)
// and 0x02 (the same nonce under today's identity). Their blocks would
// decode into the wrong fields and fail their Merkle and signature checks.
// 0x03 blocks have today's layout but carry JSON probe records in their
// args, which this build's log-match contract refuses: a member replaying
// them would fail transactions a 0x03 member applied, and its state would
// diverge without a word. The tag refuses them first.
//
// Binary transaction body (big-endian; str = u16 len + bytes,
// blob = u32 len + bytes):
//
//	str from | 8B salt | u64 expiresAt | str contract | str method |
//	blob args | blob pubKey | blob signature
//
// Binary block:
//
//	0x04 | u64 height | 32B prevHash | 32B merkleRoot | u64 time |
//	u8 difficulty | u64 nonce | str miner | u32 txCount | tx bodies...
//
// The block header's nonce is the proof-of-work nonce. A standalone
// transaction encoding is 0x04 followed by one tx body.
//
// Decoded []byte fields (Args, PubKey, Signature) alias the input buffer:
// transport and persistence layers hand each decode a freshly read buffer
// that is never reused, and decoded values are treated as immutable
// everywhere downstream. Callers that mutate the input after decoding must
// copy first.
//
// A stored block pins its frame by design: the chain keeps each block as
// its header, its transaction IDs and the encoding it arrived in, and no
// decoded copy (Chain's storedBlock); a reader that needs the transactions
// decodes the frame again. A frame that is a slice of a larger buffer pins
// the WHOLE buffer, not just its own bytes: a gossip frame is one block,
// but a bc.getrange response is many, so a pull must not ask for more
// blocks than it will keep (see pullBranch), and a node replayed from its
// block log keeps the file as it read it.
//
// Frames are shared read-only. A follower relays a gossiped block in the
// frame it received and a pulled block in its slice of the range response,
// so on an in-process transport the producer, its followers and their
// peers' frames all hold the same bytes, and nobody writes them. The miner
// encodes its block once, before the chain stores it, and relays that
// encoding (Node.afterAccept); only Chain.AddBlock, for a caller with no
// frame, encodes what it stores. The import reads and hashes a frame's
// header before its body (readBlockHeader, readTxs): each block reaches a
// follower once from its producer and again through every other follower's
// relay, and the copy of a block the chain already holds is dropped there,
// undecoded (Node.importFrame). A pending transaction keeps the frame it
// was admitted with, and the rebroadcast sends that (Mempool.Frames).

// codecVersion tags the binary format; bump on an incompatible change of
// layout or of transaction identity.
const codecVersion byte = 0x04

// maxWireTxs bounds the declared tx count of a decoded block before any
// allocation, so a hostile length field cannot balloon memory.
const maxWireTxs = 1 << 20

var errTruncated = errors.New("blockchain: truncated encoding")

// minTxBody is the encoded size of a transaction body whose strings and
// blobs are all empty: six length prefixes, the salt and the expiry height.
const minTxBody = 2 + 8 + 8 + 2 + 2 + 4 + 4 + 4

func txEncodedLen(tx *Transaction) int {
	return minTxBody + len(tx.From) +
		len(tx.Call.Contract) + len(tx.Call.Method) + len(tx.Call.Args) +
		len(tx.PubKey) + len(tx.Signature)
}

func blockEncodedLen(b *Block) int {
	n := 1 + 8 + crypto.DigestSize + crypto.DigestSize + 8 + 1 + 8 + 2 + len(b.Header.Miner) + 4
	for i := range b.Txs {
		n += txEncodedLen(&b.Txs[i])
	}
	return n
}

func appendStr16(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendBlob32(buf []byte, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func checkTxFields(tx *Transaction) error {
	for _, s := range []string{tx.From, tx.Call.Contract, tx.Call.Method} {
		if len(s) > math.MaxUint16 {
			return fmt.Errorf("blockchain: encode: string field too long (%d bytes)", len(s))
		}
	}
	return nil
}

// appendTxBody serializes one transaction body (no version byte) onto buf.
func appendTxBody(buf []byte, tx *Transaction) []byte {
	buf = appendStr16(buf, tx.From)
	buf = append(buf, tx.Salt[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tx.ExpiresAt)
	buf = appendStr16(buf, tx.Call.Contract)
	buf = appendStr16(buf, tx.Call.Method)
	buf = appendBlob32(buf, tx.Call.Args)
	buf = appendBlob32(buf, tx.PubKey)
	return appendBlob32(buf, tx.Signature)
}

// AppendTx serializes tx in the binary wire format onto buf and returns the
// extended slice. Callers that encode in a loop should reuse buf.
func AppendTx(buf []byte, tx *Transaction) ([]byte, error) {
	if err := checkTxFields(tx); err != nil {
		return buf, err
	}
	buf = append(buf, codecVersion)
	return appendTxBody(buf, tx), nil
}

// AppendBlock serializes b in the binary wire format onto buf and returns
// the extended slice.
func AppendBlock(buf []byte, b *Block) ([]byte, error) {
	if len(b.Txs) > maxWireTxs {
		return buf, fmt.Errorf("blockchain: encode block: %d txs exceeds limit", len(b.Txs))
	}
	if len(b.Header.Miner) > math.MaxUint16 {
		return buf, fmt.Errorf("blockchain: encode block: miner name too long")
	}
	for i := range b.Txs {
		if err := checkTxFields(&b.Txs[i]); err != nil {
			return buf, err
		}
	}
	h := &b.Header
	buf = append(buf, codecVersion)
	buf = binary.BigEndian.AppendUint64(buf, h.Height)
	buf = append(buf, h.PrevHash[:]...)
	buf = append(buf, h.MerkleRoot[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.TimeUnixNano))
	buf = append(buf, h.Difficulty)
	buf = binary.BigEndian.AppendUint64(buf, h.Nonce)
	buf = appendStr16(buf, h.Miner)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.Txs)))
	for i := range b.Txs {
		buf = appendTxBody(buf, &b.Txs[i])
	}
	return buf, nil
}

// txReader walks a binary tx body with bounds checks.
type txReader struct {
	buf []byte
	off int
}

func (r *txReader) u16() (uint16, error) {
	if r.off+2 > len(r.buf) {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *txReader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *txReader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// str returns a zero-copy string aliasing the input buffer, under the same
// immutability contract as blob: decoded values alias data, which callers
// hand over and never mutate. This keeps binary decode at zero allocations
// per transaction.
func (r *txReader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.buf) {
		return "", errTruncated
	}
	if n == 0 {
		return "", nil
	}
	s := unsafe.String(&r.buf[r.off], int(n))
	r.off += int(n)
	return s, nil
}

// blob returns a zero-copy view into the input buffer (nil for length 0, so
// round-trips preserve nil-ness of optional fields).
func (r *txReader) blob() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > len(r.buf)-r.off {
		return nil, errTruncated
	}
	if n == 0 {
		return nil, nil
	}
	b := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *txReader) digest() (crypto.Digest, error) {
	var d crypto.Digest
	if r.off+crypto.DigestSize > len(r.buf) {
		return d, errTruncated
	}
	copy(d[:], r.buf[r.off:])
	r.off += crypto.DigestSize
	return d, nil
}

func (r *txReader) readTxBody(tx *Transaction) error {
	var err error
	if tx.From, err = r.str(); err != nil {
		return err
	}
	if r.off+len(tx.Salt) > len(r.buf) {
		return errTruncated
	}
	r.off += copy(tx.Salt[:], r.buf[r.off:])
	if tx.ExpiresAt, err = r.u64(); err != nil {
		return err
	}
	if tx.Call.Contract, err = r.str(); err != nil {
		return err
	}
	if tx.Call.Method, err = r.str(); err != nil {
		return err
	}
	// Args are opaque to the chain: hashed into the ID, handed to the
	// contract, which answers anything it cannot parse with ErrBadArgs.
	var args []byte
	if args, err = r.blob(); err != nil {
		return err
	}
	tx.Call.Args = args
	if tx.PubKey, err = r.blob(); err != nil {
		return err
	}
	if tx.Signature, err = r.blob(); err != nil {
		return err
	}
	return nil
}

func decodeTxBinary(data []byte) (Transaction, error) {
	r := txReader{buf: data, off: 1}
	var tx Transaction
	if err := r.readTxBody(&tx); err != nil {
		return Transaction{}, fmt.Errorf("blockchain: decode tx: %w", err)
	}
	if r.off != len(data) {
		return Transaction{}, fmt.Errorf("blockchain: decode tx: %d trailing bytes", len(data)-r.off)
	}
	return tx, nil
}

// readBlockHeader reads the header of a block encoding and leaves the
// reader at the transaction count, so a caller can hash the header and drop
// a block it already holds before decoding the body (readTxs).
func readBlockHeader(data []byte) (h BlockHeader, r txReader, err error) {
	if len(data) == 0 {
		return h, r, errors.New("blockchain: decode block: empty input")
	}
	if data[0] != codecVersion {
		return h, r, fmt.Errorf("blockchain: decode block: unknown format byte 0x%02x", data[0])
	}
	r = txReader{buf: data, off: 1}
	fail := func(err error) (BlockHeader, txReader, error) {
		return BlockHeader{}, r, fmt.Errorf("blockchain: decode block: %w", err)
	}
	if h.Height, err = r.u64(); err != nil {
		return fail(err)
	}
	if h.PrevHash, err = r.digest(); err != nil {
		return fail(err)
	}
	if h.MerkleRoot, err = r.digest(); err != nil {
		return fail(err)
	}
	t, err := r.u64()
	if err != nil {
		return fail(err)
	}
	h.TimeUnixNano = int64(t)
	if r.off >= len(data) {
		return fail(errTruncated)
	}
	h.Difficulty = data[r.off]
	r.off++
	if h.Nonce, err = r.u64(); err != nil {
		return fail(err)
	}
	if h.Miner, err = r.str(); err != nil {
		return fail(err)
	}
	return h, r, nil
}

// readTxs reads the rest of a block encoding after readBlockHeader: the
// transaction count and bodies, into b.Txs, and nothing after them.
func (r *txReader) readTxs(b *Block) error {
	count, err := r.u32()
	if err != nil {
		return fmt.Errorf("blockchain: decode block: %w", err)
	}
	if count > maxWireTxs {
		return fmt.Errorf("blockchain: decode block: declared tx count %d exceeds limit", count)
	}
	// Reject counts the remaining bytes cannot possibly hold before
	// allocating.
	if int(count) > (len(r.buf)-r.off)/minTxBody {
		return fmt.Errorf("blockchain: decode block: declared tx count %d exceeds remaining data", count)
	}
	if count > 0 {
		b.Txs = make([]Transaction, count)
		for i := range b.Txs {
			if err := r.readTxBody(&b.Txs[i]); err != nil {
				return fmt.Errorf("blockchain: decode block: %w", err)
			}
		}
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("blockchain: decode block: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}
