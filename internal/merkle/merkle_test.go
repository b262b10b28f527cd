package merkle

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

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

// prove is the membership proof of the leaf at index.
func prove(t *Tree, index int) Proof {
	return Proof{LeafIndex: index, Steps: t.AppendProof(nil, index)}
}

func TestSingleLeaf(t *testing.T) {
	tr := build(leaves(1))
	if tr.Root() != LeafHash([]byte("leaf-0")) {
		t.Fatal("single-leaf root should be the leaf hash")
	}
	p := prove(tr, 0)
	if len(p.Steps) != 0 {
		t.Fatalf("single leaf proof has %d steps", len(p.Steps))
	}
	if !Verify(tr.Root(), []byte("leaf-0"), p) {
		t.Fatal("single leaf proof failed")
	}
}

func TestProofsVerifyAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		ls := leaves(n)
		tr := build(ls)
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for i := 0; i < n; i++ {
			if p := prove(tr, i); !Verify(tr.Root(), ls[i], p) || !VerifyHash(tr.Root(), LeafHash(ls[i]), p) {
				t.Fatalf("n=%d leaf %d proof failed", n, i)
			}
		}
	}
}

func TestProofRejectsWrongLeaf(t *testing.T) {
	ls := leaves(10)
	tr := build(ls)
	p := prove(tr, 3)
	if Verify(tr.Root(), []byte("not-the-leaf"), p) {
		t.Fatal("proof verified for wrong payload")
	}
	if Verify(tr.Root(), ls[4], p) {
		t.Fatal("proof for index 3 verified leaf 4")
	}
}

func TestProofRejectsWrongRoot(t *testing.T) {
	ls := leaves(8)
	tr := build(ls)
	p := prove(tr, 0)
	other := build(leaves(9))
	if Verify(other.Root(), ls[0], p) {
		t.Fatal("proof verified under wrong root")
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
	if !VerifyHash(b.Root(), hashes[2], prove(&b, 2)) {
		t.Fatal("VerifyHash failed")
	}
}

// levelTree is the tree this package built before its levels shared one
// slice: one slice per level, an odd node promoted. Roots and proofs of the
// flat layout must be its, leaf count by leaf count.
func levelTree(hashes []crypto.Digest) (root crypto.Digest, proofs [][]ProofStep) {
	levels := [][]crypto.Digest{hashes}
	for level := hashes; len(level) > 1; {
		var next []crypto.Digest
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, NodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		levels = append(levels, next)
		level = next
	}
	for idx := range hashes {
		var steps []ProofStep
		for lvl, i := 0, idx; lvl < len(levels)-1; lvl, i = lvl+1, i/2 {
			if sib := i ^ 1; sib < len(levels[lvl]) {
				steps = append(steps, ProofStep{Sibling: levels[lvl][sib], Left: sib < i})
			}
		}
		proofs = append(proofs, steps)
	}
	return levels[len(levels)-1][0], proofs
}

// TestFlatLevelsMatchPerLevelTree: for every leaf count up to 40, the flat
// tree's root and proofs are the per-level tree's, its node count is
// nodeCount, and up to 16 leaves a tree in caller storage, its root, its
// proofs and RootOf allocate nothing.
func TestFlatLevelsMatchPerLevelTree(t *testing.T) {
	for n := 1; n <= 40; n++ {
		ls := leaves(n)
		hashes := make([]crypto.Digest, n)
		for i, l := range ls {
			hashes[i] = LeafHash(l)
		}
		root, proofs := levelTree(hashes)
		tree := build(ls)
		if tree.Root() != root || RootOf(ls) != root || RootOfHashes(hashes) != root {
			t.Fatalf("%d leaves: roots differ from the per-level tree", n)
		}
		if len(tree.nodes) != nodeCount(n) || (n <= 16) != (nodeCount(n) <= SmallNodes) {
			t.Fatalf("%d leaves: %d nodes, nodeCount %d", n, len(tree.nodes), nodeCount(n))
		}
		for i := range ls {
			if p := prove(tree, i); !reflect.DeepEqual(p.Steps, proofs[i]) {
				t.Fatalf("%d leaves, leaf %d: proof differs from the per-level tree's", n, i)
			}
		}
		if n > 16 {
			continue
		}
		allocs := testing.AllocsPerRun(20, func() {
			var small [SmallNodes]crypto.Digest
			var steps [4]ProofStep
			tr := From(append(small[:0], hashes...))
			if tr.Root() != root || len(tr.AppendProof(steps[:0], n-1)) != len(proofs[n-1]) {
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

// Property: every proof of every leaf verifies, and no proof verifies a
// mutated payload.
func TestProofsPropertyBased(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(payloads [][]byte, flip uint8) bool {
		if len(payloads) == 0 {
			return true
		}
		if len(payloads) > 64 {
			payloads = payloads[:64]
		}
		tr := build(payloads)
		idx := int(flip) % len(payloads)
		p := prove(tr, idx)
		if !Verify(tr.Root(), payloads[idx], p) {
			return false
		}
		mutated := append(append([]byte(nil), payloads[idx]...), 0xAB)
		return !Verify(tr.Root(), mutated, p)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: proofs are non-transferable across indices unless payloads equal.
func TestProofNonTransferable(t *testing.T) {
	ls := leaves(32)
	tr := build(ls)
	for i := 0; i < 32; i++ {
		p := prove(tr, i)
		for j := 0; j < 32; j++ {
			if i == j {
				continue
			}
			if Verify(tr.Root(), ls[j], p) {
				t.Fatalf("proof for %d verified leaf %d", i, j)
			}
		}
	}
}
