package blockchain

import (
	"context"
	"encoding/binary"
	"math"

	"drams/internal/crypto"
)

// Mine searches for a nonce making the block header meet its declared
// difficulty. It sets b.Header.Nonce and returns true on success, or false
// if ctx was cancelled first (e.g. a competing block arrived); ctx is read
// every mineCheckEvery attempts. The nonce search starts from seed so
// concurrent miners explore different regions.
func Mine(ctx context.Context, b *Block, seed uint64) bool {
	_, ok := mine(&b.Header, seed, func() bool { return ctx.Err() != nil })
	return ok
}

// mineCheckEvery is how many nonces mine tries between two looks at whether
// to stop: a quarter of the 256 attempts difficulty 8 expects, about 13 µs
// of hashing, so a head that moves while a candidate is mined ends the
// attempt rather than yielding a stale sibling.
const mineCheckEvery = 64

// mine searches for a nonce making h meet its difficulty, from seed on, and
// returns the header's hash with h.Nonce set to it. The header's hash input
// is encoded once, on the stack, and each attempt writes its nonce in
// place. stop is asked before the first attempt and every mineCheckEvery
// attempts after it; when it answers true the search ends, returning false
// and leaving h unchanged.
func mine(h *BlockHeader, seed uint64, stop func() bool) (crypto.Digest, bool) {
	var buf [headerHashInline]byte
	input := h.appendHashInput(buf[:0])
	for i, nonce := 0, seed; ; i, nonce = i+1, nonce+1 {
		if i%mineCheckEvery == 0 && stop() {
			return crypto.Digest{}, false
		}
		binary.BigEndian.PutUint64(input[headerNonceAt:], nonce)
		if hash := crypto.Sum(input); meets(hash, h.Difficulty) {
			h.Nonce = nonce
			return hash, true
		}
	}
}

// minerSeed derives a distinct nonce-space starting point per miner name so
// that simultaneous miners on one machine don't duplicate work.
func minerSeed(name string, height uint64) uint64 {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], height)
	sum := uint64(0x9e3779b97f4a7c15)
	for _, c := range []byte(name) {
		sum = (sum ^ uint64(c)) * 0x100000001b3
	}
	for _, c := range buf {
		sum = (sum ^ uint64(c)) * 0x100000001b3
	}
	return sum
}

// ExpectedAttemptsForDifficulty returns the mean number of hash attempts to
// find a block at the given difficulty (2^d); used by the E3 analysis.
func ExpectedAttemptsForDifficulty(d uint8) float64 {
	return math.Ldexp(1, int(d))
}
