package contract

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"drams/internal/crypto"
)

// Clone returns a deep copy. Only tests copy a state.
func (s *State) Clone() *State {
	c := NewState()
	for _, sp := range s.ordered {
		cs := Namespace(c, sp.name).(*space)
		cs.index = sp.index.clone()
		for k, v := range sp.data {
			cs.data[k] = append([]byte(nil), v...)
		}
	}
	return c
}

// clone deep-copies the index.
func (ix keyIndex) clone() keyIndex { return keyIndex{root: ix.root.clone()} }

func (n *keyNode) clone() *keyNode {
	if n == nil {
		return nil
	}
	return &keyNode{key: n.key, prio: n.prio, left: n.left.clone(), right: n.right.clone()}
}

// scanState is the reference the spaces and their ordered key indexes
// replaced: one bare map of full keys ("<contract>/<key>") whose key scan
// tests every key against the prefix and sorts the survivors, and whose
// digest sorts the whole key set. It stays here as the oracle.
type scanState struct{ data map[string][]byte }

func (s *scanState) keys(prefix string) []string {
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
func (s *scanState) clone() *scanState {
	c := &scanState{data: make(map[string][]byte, len(s.data))}
	for k, v := range s.data {
		c.data[k] = append([]byte(nil), v...)
	}
	return c
}
func (s *scanState) digest() crypto.Digest {
	keys := s.keys("")
	chunks := make([][]byte, 0, 2*len(keys))
	for _, k := range keys {
		chunks = append(chunks, []byte(k), s.data[k])
	}
	return crypto.SumAll(chunks...)
}

// scanSpace is one contract's part of a scanState: the key concatenation
// the spaces replaced.
type scanSpace struct {
	s      *scanState
	prefix string
}

func (n scanSpace) Get(key string) ([]byte, bool) {
	v, ok := n.s.data[n.prefix+key]
	return v, ok
}
func (n scanSpace) Set(key string, value []byte) {
	n.s.data[n.prefix+key] = append([]byte(nil), value...)
}
func (n scanSpace) Delete(key string) { delete(n.s.data, n.prefix+key) }
func (n scanSpace) Keys(prefix string) iter.Seq[string] {
	return func(yield func(string) bool) {
		for _, k := range n.s.keys(n.prefix + prefix) {
			if !yield(strings.TrimPrefix(k, n.prefix)) {
				return
			}
		}
	}
}

// indexTestKeys is a universe built so that everything the index must order
// correctly occurs: keys that are prefixes of other keys (with and without a
// path separator between), segments that differ in bytes on both sides of
// '/' ('-', '.' sort before it, digits and letters after), one to three
// segments, and the empty key.
func indexTestKeys() []string {
	segs := []string{"a", "ab", "a-b", "a.b", "a0", "b", "rec", "deadline"}
	keys := []string{""}
	var grow func(prefix string, depth int)
	grow = func(prefix string, depth int) {
		for i, s := range segs {
			if depth > 1 && i%depth != 0 { // thin the deeper levels
				continue
			}
			k := prefix + s
			keys = append(keys, k, k+"/")
			if depth < 3 {
				grow(k+"/", depth+1)
			}
		}
	}
	grow("", 1)
	return keys
}

// TestStateKeysMatchesFullScan drives State and the full-scan oracle with the
// same seeded random script — writes outside a transaction (as block hooks
// make them), transactions through the engine that commit or fail and roll
// back, clones that take over — and requires every read, every prefix query
// and the digest to agree after every step. A transaction's own reads are
// checked against the oracle's copy of its pending writes.
func TestStateKeysMatchesFullScan(t *testing.T) {
	universe := indexTestKeys()
	// Query prefixes: every key (so "prefix equal to a key" and "key that is
	// a prefix of other keys"), every proper byte prefix of a sample of them
	// (partial segments, zero to several whole segments), the empty prefix,
	// and some that match nothing.
	prefixSet := map[string]bool{"": true, "zz": true, "a/zz/": true, "rec0": true}
	for i, k := range universe {
		prefixSet[k] = true
		if i%7 == 0 {
			for j := range k {
				prefixSet[k[:j]] = true
			}
		}
	}
	prefixes := make([]string, 0, len(prefixSet))
	for p := range prefixSet {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	// "a-b/" sorts before "a/": the digest must walk spaces in the order of
	// their full keys, not of their names.
	names := []string{"a", "rec", "a-b"}

	rng := rand.New(rand.NewSource(15))
	st, oracle := NewState(), &scanState{data: map[string][]byte{}}
	pick := func() string { return universe[rng.Intn(len(universe))] }
	// write applies the same random Set/Delete mix to both sides.
	write := func(a, b StateDB, n int) {
		for i := 0; i < n; i++ {
			k := pick()
			if rng.Intn(3) == 0 {
				a.Delete(k)
				b.Delete(k)
				continue
			}
			v := []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
			a.Set(k, v)
			b.Set(k, v)
		}
	}
	// agree compares one space with the oracle's, key by key and under each
	// of the prefixes.
	agree := func(a, b StateDB, prefixes []string) error {
		for _, k := range universe {
			va, oka := a.Get(k)
			vb, okb := b.Get(k)
			if oka != okb || string(va) != string(vb) {
				return fmt.Errorf("Get(%q) = %q, %v; full scan gives %q, %v", k, va, oka, vb, okb)
			}
		}
		for _, p := range prefixes {
			if got, want := slices.Collect(a.Keys(p)), slices.Collect(b.Keys(p)); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("Keys(%q) = %q, full scan gives %q", p, got, want)
			}
		}
		return nil
	}
	var pending *scanState // the oracle of the running transaction
	reg := NewRegistry()
	for _, name := range names {
		reg.MustRegister(&scriptContract{name: name, fn: func(sp StateDB) error {
			ob := scanSpace{pending, name + "/"}
			write(sp, ob, 1+rng.Intn(12))
			if err := agree(sp, ob, []string{pick(), pick(), ""}); err != nil {
				return fmt.Errorf("inside the call: %v", err)
			}
			if rng.Intn(4) == 0 {
				return errForced
			}
			return nil
		}})
	}
	engine := NewEngine(reg)
	// check compares the spaces a step touched in full, and the whole state
	// by its digest, which reads every space's index.
	check := func(step int, what string, touched []string) {
		t.Helper()
		if st.Len() != len(oracle.data) {
			t.Fatalf("step %d (%s): %d keys, oracle has %d", step, what, st.Len(), len(oracle.data))
		}
		for _, name := range touched {
			if err := agree(st.View(name), scanSpace{oracle, name + "/"}, prefixes); err != nil {
				t.Fatalf("step %d (%s): space %q: %v", step, what, name, err)
			}
		}
		if st.Digest() != oracle.digest() {
			t.Fatalf("step %d (%s): digest diverged from the full-scan digest", step, what)
		}
	}

	for step := 0; step < 400; step++ {
		var what string
		name := names[rng.Intn(len(names))]
		touched := []string{name}
		switch op := rng.Intn(10); {
		case op < 4:
			what = "writes outside a transaction"
			write(Namespace(st, name), scanSpace{oracle, name + "/"}, 1+rng.Intn(8))
		case op < 9:
			pending = oracle.clone()
			_, err := engine.Execute(CallCtx{}, st, Call{Contract: name})
			switch {
			case err == nil:
				what = "transaction committed"
				oracle = pending
			case errors.Is(err, errForced):
				what = "transaction rolled back"
			default:
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			what = "clone takes over"
			touched = names
			oldSt, oldOracle := st, oracle
			st, oracle = st.Clone(), oracle.clone()
			write(Namespace(oldSt, name), scanSpace{oldOracle, name + "/"}, 5) // the original moves on; the clone must not see it
		}
		check(step, what, touched)
	}
	if st.Len() < 20 {
		t.Fatalf("script ended with %d keys: too few to have exercised the index", st.Len())
	}
}

// BenchmarkStateKeysSparsePrefix is the block-hook access pattern: a short
// queue under one prefix beside a large and growing set of unrelated keys,
// read to its end. ns/op must not depend on how many unrelated keys there
// are, and the walk allocates nothing.
func BenchmarkStateKeysSparsePrefix(b *testing.B) {
	for _, unrelated := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("unrelated=%d", unrelated), func(b *testing.B) {
			sp := Namespace(NewState(), "drams.logmatch").(*space)
			for i := 0; i < unrelated; i++ {
				sp.Set(fmt.Sprintf("rec/req-%07d/pep.request", i), []byte("r"))
			}
			for i := 0; i < 16; i++ {
				sp.Set(fmt.Sprintf("deadline/%016x/req-%07d", 1000+i, i), []byte("1"))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for range sp.Keys("deadline/") {
					n++
				}
				if n != 16 {
					b.Fatalf("%d keys under the prefix, want 16", n)
				}
			}
		})
	}
}
