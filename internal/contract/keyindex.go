package contract

import (
	"hash/maphash"
	"strings"
)

// keyIndex is the ordered set of a State's keys: a treap (binary search tree
// on the key, max-heap on a pseudo-random priority), so insert and remove
// cost O(log n) expected and the keys under a prefix — one contiguous run of
// the byte order — are reached in O(log n) and read in O(matches), already
// sorted. The shape depends on the priorities, never the output: an in-order
// walk is the byte order whatever the rotations were.
type keyIndex struct {
	root *keyNode
}

type keyNode struct {
	key         string
	prio        uint64
	left, right *keyNode
}

// keyPrioSeed keys the priorities. It is drawn per process: state is a
// replay of the chain, so with priorities every replica could compute, a
// member who mines a block could pick keys that line the treap up into a
// path. Replicas need the same keys, not the same tree.
var keyPrioSeed = maphash.MakeSeed()

// insert adds key, which must not be present (Set checks its map).
func (ix *keyIndex) insert(key string) {
	ix.root = ix.root.insert(&keyNode{key: key, prio: maphash.String(keyPrioSeed, key)})
}

func (n *keyNode) insert(leaf *keyNode) *keyNode {
	if n == nil {
		return leaf
	}
	if leaf.key < n.key {
		n.left = n.left.insert(leaf)
		if n.left.prio > n.prio { // rotate right
			l := n.left
			n.left, l.right = l.right, n
			return l
		}
		return n
	}
	n.right = n.right.insert(leaf)
	if n.right.prio > n.prio { // rotate left
		r := n.right
		n.right, r.left = r.left, n
		return r
	}
	return n
}

// remove deletes key; absent keys are a no-op.
func (ix *keyIndex) remove(key string) { ix.root = ix.root.remove(key) }

func (n *keyNode) remove(key string) *keyNode {
	switch {
	case n == nil:
		return nil
	case key < n.key:
		n.left = n.left.remove(key)
	case key > n.key:
		n.right = n.right.remove(key)
	default:
		return mergeKeyNodes(n.left, n.right)
	}
	return n
}

// mergeKeyNodes joins two treaps where every key of a sorts before every key
// of b.
func mergeKeyNodes(a, b *keyNode) *keyNode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio > b.prio:
		a.right = mergeKeyNodes(a.right, b)
		return a
	default:
		b.left = mergeKeyNodes(a, b.left)
		return b
	}
}

// firstWithPrefix returns the smallest key in the subtree that starts with
// prefix: the smallest key not below prefix, if it has the prefix. It costs
// O(log n) and allocates nothing.
func (n *keyNode) firstWithPrefix(prefix string) (string, bool) {
	var first *keyNode
	for n != nil {
		if n.key < prefix {
			n = n.right
		} else {
			first, n = n, n.left
		}
	}
	if first == nil || !strings.HasPrefix(first.key, prefix) {
		return "", false
	}
	return first.key, true
}

// walkPrefix yields, in byte order, every key that starts with prefix, and
// returns false as soon as yield does. A subtree is entered only if it can
// hold such a key: a node that sorts before prefix rules out its left side,
// one that sorts after every prefixed key rules out its right. A walk that
// stops at its k-th key costs O(log n + k).
func (n *keyNode) walkPrefix(prefix string, yield func(string) bool) bool {
	for n != nil {
		switch {
		case strings.HasPrefix(n.key, prefix):
			if !n.left.walkPrefix(prefix, yield) || !yield(n.key) {
				return false
			}
			n = n.right
		case n.key < prefix:
			n = n.right
		default:
			n = n.left
		}
	}
	return true
}
