// Package merkle implements binary Merkle hash trees with membership proofs.
//
// DRAMS uses Merkle trees in two places: (1) each blockchain block commits to
// its transaction set through a Merkle root, and (2) the hybrid
// database+blockchain store (paper §III, reference [9]) anchors batches of
// database writes on-chain as a single root, with per-entry membership proofs
// verified at audit time.
//
// Leaves are domain-separated from interior nodes (0x00 / 0x01 prefixes) so
// that a proof for an interior node can never masquerade as a leaf —
// preventing the classic second-preimage attack on naive Merkle trees.
package merkle

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"drams/internal/crypto"
)

var (
	// ErrEmptyTree is returned when building a tree over zero leaves.
	ErrEmptyTree = errors.New("merkle: cannot build tree with no leaves")
	// ErrIndexRange is returned when a proof is requested for an index
	// outside the tree.
	ErrIndexRange = errors.New("merkle: leaf index out of range")
)

const (
	leafPrefix     = 0x00
	interiorPrefix = 0x01
)

// LeafHash computes the domain-separated hash of a leaf payload. The prefix
// is streamed into the hash, so a leaf of any size is hashed where it lies.
func LeafHash(data []byte) crypto.Digest {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var d crypto.Digest
	h.Sum(d[:0])
	return d
}

// NodeHash combines two child digests into a parent digest.
func NodeHash(left, right crypto.Digest) crypto.Digest {
	var buf [1 + 2*crypto.DigestSize]byte
	buf[0] = interiorPrefix
	copy(buf[1:], left[:])
	copy(buf[1+crypto.DigestSize:], right[:])
	return crypto.Sum(buf[:])
}

// Tree is an immutable Merkle tree built over a sequence of leaves. An odd
// node at any level is promoted (not duplicated), which avoids the Bitcoin
// CVE-2012-2459 duplicate-leaf ambiguity.
type Tree struct {
	levels [][]crypto.Digest // levels[0] = leaf hashes, last level = [root]
	n      int
}

// Build constructs a tree over the given leaf payloads.
func Build(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmptyTree
	}
	level := make([]crypto.Digest, len(leaves))
	for i, l := range leaves {
		level[i] = LeafHash(l)
	}
	return buildFromLeafHashes(level), nil
}

// BuildFromHashes constructs a tree whose leaves are pre-hashed digests
// (useful when leaf payloads are large and already fingerprinted).
func BuildFromHashes(leafHashes []crypto.Digest) (*Tree, error) {
	if len(leafHashes) == 0 {
		return nil, ErrEmptyTree
	}
	level := make([]crypto.Digest, len(leafHashes))
	copy(level, leafHashes)
	return buildFromLeafHashes(level), nil
}

func buildFromLeafHashes(level []crypto.Digest) *Tree {
	t := &Tree{n: len(level)}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]crypto.Digest, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, NodeHash(level[i], level[i+1]))
			} else {
				// Odd node: promote unchanged.
				next = append(next, level[i])
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Root returns the tree's root digest.
func (t *Tree) Root() crypto.Digest {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return t.n }

// ProofStep is one sibling digest on the path from a leaf to the root.
type ProofStep struct {
	Sibling crypto.Digest `json:"sibling"`
	Left    bool          `json:"left"` // true if the sibling is the left child
}

// Proof is a membership proof for one leaf.
type Proof struct {
	LeafIndex int         `json:"leafIndex"`
	Steps     []ProofStep `json:"steps"`
}

// Prove returns the membership proof for the leaf at index.
func (t *Tree) Prove(index int) (Proof, error) {
	if index < 0 || index >= t.n {
		return Proof{}, fmt.Errorf("merkle: prove index %d of %d leaves: %w", index, t.n, ErrIndexRange)
	}
	p := Proof{LeafIndex: index}
	idx := index
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		sib := idx ^ 1
		if sib < len(level) {
			p.Steps = append(p.Steps, ProofStep{Sibling: level[sib], Left: sib < idx})
		}
		// If sib >= len(level) the node was promoted; no step is recorded.
		idx /= 2
	}
	return p, nil
}

// Verify checks that leaf payload data is included under root via proof.
func Verify(root crypto.Digest, data []byte, proof Proof) bool {
	return VerifyHash(root, LeafHash(data), proof)
}

// VerifyHash checks inclusion of a pre-hashed leaf digest under root.
func VerifyHash(root crypto.Digest, leafHash crypto.Digest, proof Proof) bool {
	cur := leafHash
	for _, s := range proof.Steps {
		if s.Left {
			cur = NodeHash(s.Sibling, cur)
		} else {
			cur = NodeHash(cur, s.Sibling)
		}
	}
	return cur == root
}

// RootOf is a convenience that computes the Merkle root of the payloads
// without retaining the tree. It returns the zero digest for no leaves,
// providing a stable sentinel for "empty set" (e.g. an empty block).
func RootOf(leaves [][]byte) crypto.Digest {
	if len(leaves) == 0 {
		return crypto.Digest{}
	}
	t, err := Build(leaves)
	if err != nil {
		return crypto.Digest{}
	}
	return t.Root()
}

// RootOfHashes computes the root over pre-hashed leaves, zero digest if none.
func RootOfHashes(hashes []crypto.Digest) crypto.Digest {
	if len(hashes) == 0 {
		return crypto.Digest{}
	}
	t, err := BuildFromHashes(hashes)
	if err != nil {
		return crypto.Digest{}
	}
	return t.Root()
}
