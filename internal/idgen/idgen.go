// Package idgen produces unique identifiers for requests, transactions and
// log entries. Generators are seedable so that whole-system simulations are
// reproducible, and every generated identifier is lexically sortable by
// generation order within a generator.
package idgen

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"sync"
)

// ID is a 16-byte identifier rendered as 32 hex characters.
type ID [16]byte

// String renders the ID as lowercase hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Generator yields unique IDs. It is safe for concurrent use.
type Generator struct {
	mu    sync.Mutex
	state uint64 // splitmix64 state
	ctr   uint64
}

// New returns a Generator seeded from crypto/rand.
func New() *Generator {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable for unique ID generation;
		// fall back to a fixed seed rather than aborting the process.
		binary.BigEndian.PutUint64(b[:], 0x9e3779b97f4a7c15)
	}
	return NewSeeded(binary.BigEndian.Uint64(b[:]))
}

// NewSeeded returns a deterministic Generator: two generators built with the
// same seed yield the same ID sequence.
func NewSeeded(seed uint64) *Generator {
	return &Generator{state: seed}
}

// Next returns the next unique ID. The first 8 bytes are a monotonically
// increasing counter (so IDs sort by generation order); the last 8 are a
// splitmix64 output keyed by the seed.
func (g *Generator) Next() ID {
	g.mu.Lock()
	g.ctr++
	ctr := g.ctr
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	g.mu.Unlock()

	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31

	var id ID
	binary.BigEndian.PutUint64(id[0:8], ctr)
	binary.BigEndian.PutUint64(id[8:16], z)
	return id
}

// Rand is a small, fast, seedable PRNG (xoshiro256**) used by simulations
// that need reproducible randomness without importing math/rand's global
// state. It is safe for concurrent use.
type Rand struct {
	mu sync.Mutex
	s  [4]uint64
}

// NewRand returns a Rand seeded deterministically from seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	// Expand the seed through splitmix64 per the xoshiro authors' advice.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0,
// mirroring math/rand semantics.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("idgen: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
//
//lint:ignore deadcode test helper: idgen's and core's tests shuffle with it; core's scripted-chain block orders depend on its exact draws
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bytes fills a new slice of length n with pseudo-random bytes.
func (r *Rand) Bytes(n int) []byte {
	b := make([]byte, n)
	var word uint64
	for i := range b {
		if i%8 == 0 {
			word = r.Uint64()
		}
		b[i] = byte(word >> (8 * (i % 8)))
	}
	return b
}
