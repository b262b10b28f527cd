// Package merkle implements binary Merkle hash trees.
//
// DRAMS uses Merkle trees in two places: (1) each blockchain block commits to
// its transaction set through a Merkle root, and (2) each logbatch
// transaction commits to its records through a root, which every replica's
// contract recomputes over the records the transaction carries.
//
// Leaves are domain-separated from interior nodes (0x00 / 0x01 prefixes) so
// that an interior node can never masquerade as a leaf — preventing the
// classic second-preimage attack on naive Merkle trees.
package merkle

import (
	"crypto/sha256"

	"drams/internal/crypto"
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
// CVE-2012-2459 duplicate-leaf ambiguity. Its levels lie in one slice, the
// leaf hashes first and the root last, so a tree is one allocation, and none
// for a caller that builds it with From over storage of its own.
type Tree struct {
	nodes []crypto.Digest // every level, bottom up: the leaf hashes, ..., the root
}

// SmallNodes is the node count of a tree over 16 leaves, the most that a
// caller's array of SmallNodes digests holds: a tree over up to 16 leaves
// built in one (see From) allocates nothing.
const SmallNodes = 31

// nodeCount is the number of nodes of a tree over n leaves: the capacity
// From needs to build it without growing its storage.
func nodeCount(n int) int {
	c := n
	for ; n > 1; c += n {
		n = (n + 1) / 2
	}
	return c
}

// From builds the tree whose leaf hashes are nodes, appending the levels
// above them to nodes' storage: in storage from Storage it allocates
// nothing, and the tree aliases that storage. nodes must not be empty.
func From(nodes []crypto.Digest) Tree {
	for start, width := 0, len(nodes); width > 1; start, width = start+width, (width+1)/2 {
		for i := start; i < start+width; i += 2 {
			if i+1 < start+width {
				nodes = append(nodes, NodeHash(nodes[i], nodes[i+1]))
			} else {
				nodes = append(nodes, nodes[i]) // odd node: promoted unchanged
			}
		}
	}
	return Tree{nodes: nodes}
}

// Root returns the tree's root digest.
func (t *Tree) Root() crypto.Digest { return t.nodes[len(t.nodes)-1] }

// RootOf is a convenience that computes the Merkle root of the payloads
// without retaining the tree. It returns the zero digest for no leaves,
// providing a stable sentinel for "empty set" (e.g. an empty block). Up to
// 16 leaves it allocates nothing.
func RootOf(leaves [][]byte) crypto.Digest {
	if len(leaves) == 0 {
		return crypto.Digest{}
	}
	var small [SmallNodes]crypto.Digest
	nodes := Storage(&small, len(leaves))
	for _, l := range leaves {
		nodes = append(nodes, LeafHash(l))
	}
	t := From(nodes)
	return t.Root()
}

// RootOfHashes computes the root over pre-hashed leaves, zero digest if
// none. Up to 16 leaves it allocates nothing.
func RootOfHashes(hashes []crypto.Digest) crypto.Digest {
	if len(hashes) == 0 {
		return crypto.Digest{}
	}
	var small [SmallNodes]crypto.Digest
	t := From(append(Storage(&small, len(hashes)), hashes...))
	return t.Root()
}

// Storage returns empty storage for a tree over n leaves: small's when it
// fits (n <= 16), else one allocation of the exact size.
func Storage(small *[SmallNodes]crypto.Digest, n int) []crypto.Digest {
	if c := nodeCount(n); c > SmallNodes {
		return make([]crypto.Digest, 0, c)
	}
	return small[:0]
}
