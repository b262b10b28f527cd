package merkle

import (
	"fmt"
	"testing"

	"drams/internal/crypto"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

// build builds the tree over non-empty payloads as core's logbatch does:
// leaf hashes in Storage, then From.
func build(payloads [][]byte) *Tree {
	var small [SmallNodes]crypto.Digest
	nodes := Storage(&small, len(payloads))
	for _, p := range payloads {
		nodes = append(nodes, LeafHash(p))
	}
	t := From(nodes)
	return &t
}

func TestSingleLeaf(t *testing.T) {
	tr := build(leaves(1))
	if tr.Root() != LeafHash([]byte("leaf-0")) {
		t.Fatal("single-leaf root should be the leaf hash")
	}
}

func TestRootChangesWithAnyLeafChange(t *testing.T) {
	base := leaves(16)
	root := build(base).Root()
	for i := range base {
		mutated := leaves(16)
		mutated[i] = append(mutated[i], 'X')
		if build(mutated).Root() == root {
			t.Fatalf("mutating leaf %d did not change root", i)
		}
	}
}

func TestDomainSeparation(t *testing.T) {
	// An interior node value must never equal a leaf hash of the
	// concatenated children (second-preimage defence).
	l, r := LeafHash([]byte("a")), LeafHash([]byte("b"))
	node := NodeHash(l, r)
	concat := append(l.Bytes(), r.Bytes()...)
	if node == LeafHash(concat) {
		t.Fatal("interior node collides with leaf hash")
	}
}

// The hashes are SHA-256 over prefix‖payload, computed without copying the
// payload: same digests as the concatenation, no allocation.
func TestHashesArePrefixedSHA256WithoutAllocating(t *testing.T) {
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	if LeafHash(data) != crypto.Sum(append([]byte{0x00}, data...)) {
		t.Fatal("LeafHash is not SHA-256(0x00 ‖ data)")
	}
	l, r := LeafHash([]byte("a")), LeafHash([]byte("b"))
	if NodeHash(l, r) != crypto.Sum(append(append([]byte{0x01}, l[:]...), r[:]...)) {
		t.Fatal("NodeHash is not SHA-256(0x01 ‖ left ‖ right)")
	}
	if n := testing.AllocsPerRun(100, func() { LeafHash(data); NodeHash(l, r) }); n != 0 {
		t.Fatalf("LeafHash+NodeHash allocate %v times per call", n)
	}
}

func TestOddPromotionNoDuplicateAmbiguity(t *testing.T) {
	// With duplicate-last-leaf trees, [a,b,c] and [a,b,c,c] share a root;
	// promotion must distinguish them.
	ls4 := leaves(3)
	ls4 = append(ls4, ls4[2])
	if build(leaves(3)).Root() == build(ls4).Root() {
		t.Fatal("odd-promotion tree has duplicate-leaf ambiguity")
	}
}

func TestFromHashesMatchesBuild(t *testing.T) {
	ls := leaves(7)
	hashes := make([]crypto.Digest, len(ls))
	for i, l := range ls {
		hashes[i] = LeafHash(l)
	}
	a := build(ls)
	b := From(append([]crypto.Digest(nil), hashes...))
	if a.Root() != b.Root() || RootOfHashes(hashes) != a.Root() {
		t.Fatal("build, From and RootOfHashes disagree")
	}
}

// levelRoot is the root of the tree this package built before its levels
// shared one slice: one slice per level, an odd node promoted. The flat
// layout's roots must be its, leaf count by leaf count.
func levelRoot(hashes []crypto.Digest) crypto.Digest {
	level := hashes
	for len(level) > 1 {
		var next []crypto.Digest
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, NodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}

// TestFlatLevelsMatchPerLevelTree: for every leaf count up to 40, the flat
// tree's root is the per-level tree's, its node count is nodeCount, and up
// to 16 leaves a tree in caller storage, its root and RootOf allocate
// nothing.
func TestFlatLevelsMatchPerLevelTree(t *testing.T) {
	for n := 1; n <= 40; n++ {
		ls := leaves(n)
		hashes := make([]crypto.Digest, n)
		for i, l := range ls {
			hashes[i] = LeafHash(l)
		}
		root := levelRoot(hashes)
		tree := build(ls)
		if tree.Root() != root || RootOf(ls) != root || RootOfHashes(hashes) != root {
			t.Fatalf("%d leaves: roots differ from the per-level tree", n)
		}
		if len(tree.nodes) != nodeCount(n) || (n <= 16) != (nodeCount(n) <= SmallNodes) {
			t.Fatalf("%d leaves: %d nodes, nodeCount %d", n, len(tree.nodes), nodeCount(n))
		}
		if n > 16 {
			continue
		}
		allocs := testing.AllocsPerRun(20, func() {
			var small [SmallNodes]crypto.Digest
			tr := From(append(small[:0], hashes...))
			if tr.Root() != root {
				t.Fatal("tree in caller storage differs")
			}
			RootOf(ls)
		})
		if allocs != 0 {
			t.Fatalf("%d leaves: %v allocations", n, allocs)
		}
	}
}

func TestRootOfConveniences(t *testing.T) {
	if !RootOf(nil).IsZero() {
		t.Fatal("RootOf(nil) should be zero digest")
	}
	if !RootOfHashes(nil).IsZero() {
		t.Fatal("RootOfHashes(nil) should be zero digest")
	}
	ls := leaves(5)
	if RootOf(ls) != build(ls).Root() {
		t.Fatal("RootOf mismatch")
	}
}
