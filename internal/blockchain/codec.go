package blockchain

import (
	"encoding/binary"
	"fmt"

	"drams/internal/crypto"
	"drams/internal/wire"
)

// Wire codec for blocks, transactions and the catch-up messages.
//
// The hot path (gossip, bc.getrange sync, the block log) uses the binary
// framing of internal/wire: append-to-caller-buffer writers, exact-size
// pre-computation (one allocation per encode) and zero-copy reads on
// decode. The first byte of every encoding is a format tag:
//
//	0x05        this file's layout: uvarint lengths and counts
//
// and decoders reject every other tag, so a layout change bumps the tag and
// builds on either side refuse the other's bytes instead of misreading them.
// Older tags are refused here, by name: 0x01 (a per-sender u64 nonce where
// the salt and expiry now sit, and an ID over a JSON encoding of the call),
// 0x02 (the same nonce under today's identity), 0x03 (today's fields with
// JSON probe records in the args, which this build's log-match contract
// refuses) and 0x04 (today's fields and identity in a fixed-width framing:
// u16 string and u32 blob lengths, a u32 transaction count). A member that
// opens a block log of an older build drops its blocks and refills them
// from its peers.
//
// Layouts, big-endian, built from wire's str (uvarint length + bytes), blob
// (the same, for bytes) and uvarint counts; every other field has a fixed
// width:
//
//	tx body     str from | 8B salt | u64 expiresAt | str contract |
//	            str method | blob args | blob pubKey | blob signature
//	tx          0x05 | tx body
//	block       0x05 | u64 height | 32B prevHash | 32B merkleRoot |
//	            u64 time | u8 difficulty | u64 nonce | str miner |
//	            uvarint txCount | tx bodies...
//	range req   0x05 | 32B cursor | uvarint count
//	range resp  0x05 | uvarint count | blob block...
//	head reply  0x05 | 32B hash | u64 height
//
// The block header's nonce is the proof-of-work nonce. The reader is
// canonical (minimal varints, counts the bytes left can hold, no trailing
// bytes), so an accepted encoding re-encodes to the same bytes. Identities
// do not depend on the framing: a transaction's ID and signature cover its
// fields (signingBytes) and a block's hash its header fields
// (appendHashInput).
//
// Decoded strings and []byte fields (Args, PubKey, Signature) alias the
// input buffer: transport and persistence layers hand each decode a freshly
// read buffer that is never reused, and decoded values are treated as
// immutable everywhere downstream. Callers that mutate the input after
// decoding must copy first.
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
const codecVersion byte = 0x05

// minTxBody is the encoded size of a transaction body whose strings and
// blobs are all empty: six one-byte length prefixes, the salt and the
// expiry height.
const minTxBody = 6 + 8 + 8

func txEncodedLen(tx *Transaction) int {
	return 8 + 8 + wire.StrLen(len(tx.From)) +
		wire.StrLen(len(tx.Call.Contract)) + wire.StrLen(len(tx.Call.Method)) + wire.StrLen(len(tx.Call.Args)) +
		wire.StrLen(len(tx.PubKey)) + wire.StrLen(len(tx.Signature))
}

func blockEncodedLen(b *Block) int {
	n := 1 + headerNonceAt + 8 + wire.StrLen(len(b.Header.Miner)) + wire.UvarintLen(uint64(len(b.Txs)))
	for i := range b.Txs {
		n += txEncodedLen(&b.Txs[i])
	}
	return n
}

// appendTxBody serializes one transaction body (no version byte) onto buf.
func appendTxBody(buf []byte, tx *Transaction) []byte {
	buf = wire.AppendStr(buf, tx.From)
	buf = append(buf, tx.Salt[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tx.ExpiresAt)
	buf = wire.AppendStr(buf, tx.Call.Contract)
	buf = wire.AppendStr(buf, tx.Call.Method)
	buf = wire.AppendBlob(buf, tx.Call.Args)
	buf = wire.AppendBlob(buf, tx.PubKey)
	return wire.AppendBlob(buf, tx.Signature)
}

// AppendTx serializes tx in the binary wire format onto buf and returns the
// extended slice. Callers that encode in a loop should reuse buf.
func AppendTx(buf []byte, tx *Transaction) []byte {
	return appendTxBody(append(buf, codecVersion), tx)
}

// AppendBlock serializes b in the binary wire format onto buf and returns
// the extended slice. The error is always nil: every length and count is a
// uvarint, so no field outgrows its prefix. It stays in the signature for
// the callers that check it.
func AppendBlock(buf []byte, b *Block) ([]byte, error) {
	buf = b.Header.appendFixed(append(buf, codecVersion))
	buf = wire.AppendStr(buf, b.Header.Miner)
	buf = binary.AppendUvarint(buf, uint64(len(b.Txs)))
	for i := range b.Txs {
		buf = appendTxBody(buf, &b.Txs[i])
	}
	return buf, nil
}

// readTag reads the format tag that opens an encoding of what, and refuses
// a tag this build does not read, naming it.
func readTag(r *wire.Reader, what string) error {
	switch tag := r.U8(); {
	case r.Err() != nil:
		return fmt.Errorf("blockchain: decode %s: empty input", what)
	case tag == codecVersion:
		return nil
	case tag != 0 && tag < codecVersion:
		return fmt.Errorf("blockchain: decode %s: unknown format byte 0x%02x, an older build's (this build reads 0x%02x)", what, tag, codecVersion)
	default:
		return fmt.Errorf("blockchain: decode %s: unknown format byte 0x%02x", what, tag)
	}
}

// readTxBody reads one transaction body into tx; r's error says whether it
// was whole. Args are opaque to the chain: hashed into the ID, handed to
// the contract, which answers anything it cannot parse with ErrBadArgs.
func readTxBody(r *wire.Reader, tx *Transaction) {
	tx.From = r.Str()
	copy(tx.Salt[:], r.Bytes(len(tx.Salt)))
	tx.ExpiresAt = r.U64()
	tx.Call.Contract = r.Str()
	tx.Call.Method = r.Str()
	tx.Call.Args = r.Blob()
	tx.PubKey = r.Blob()
	tx.Signature = r.Blob()
}

// readBlockHeader reads the header of a block encoding from a fresh reader
// into h and leaves the reader at the transaction count, so a caller can
// hash the header and drop a block it already holds before decoding the
// body (readTxs).
func readBlockHeader(r *wire.Reader, h *BlockHeader) error {
	if err := readTag(r, "block"); err != nil {
		return err
	}
	h.Height = r.U64()
	copy(h.PrevHash[:], r.Bytes(crypto.DigestSize))
	copy(h.MerkleRoot[:], r.Bytes(crypto.DigestSize))
	h.TimeUnixNano = int64(r.U64())
	h.Difficulty = r.U8()
	h.Nonce = r.U64()
	h.Miner = r.Str()
	if err := r.Err(); err != nil {
		return fmt.Errorf("blockchain: decode block: %w", err)
	}
	return nil
}

// readTxs reads the rest of a block encoding after readBlockHeader: the
// transaction count and bodies, into b.Txs, and nothing after them.
func readTxs(r *wire.Reader, b *Block) error {
	if n := r.Count(minTxBody); n > 0 {
		b.Txs = make([]Transaction, n)
		for i := range b.Txs {
			readTxBody(r, &b.Txs[i])
		}
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("blockchain: decode block: %w", err)
	}
	return nil
}
