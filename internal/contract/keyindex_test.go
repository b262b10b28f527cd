package contract

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"drams/internal/crypto"
)

// Clone returns a deep copy. Only tests copy a state.
func (s *State) Clone() *State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &State{
		data:  make(map[string][]byte, len(s.data)),
		index: s.index.clone(),
	}
	for k, v := range s.data {
		cp := make([]byte, len(v))
		copy(cp, v)
		c.data[k] = cp
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

// scanState is the reference the ordered key index replaced: a bare map
// whose Keys tests every key against the prefix and sorts the survivors, and
// whose digest sorts the whole key set. It stays here as the oracle.
type scanState struct{ data map[string][]byte }

func (s *scanState) Get(key string) ([]byte, bool) {
	v, ok := s.data[key]
	return append([]byte(nil), v...), ok
}
func (s *scanState) Set(key string, value []byte) { s.data[key] = append([]byte(nil), value...) }
func (s *scanState) Delete(key string)            { delete(s.data, key) }
func (s *scanState) Keys(prefix string) []string {
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
	keys := s.Keys("")
	chunks := make([][]byte, 0, 2*len(keys))
	for _, k := range keys {
		chunks = append(chunks, []byte(k), s.data[k])
	}
	return crypto.SumAll(chunks...)
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
// same seeded random script — direct writes, namespaced writes, overlays that
// commit or are dropped, clones that take over — and requires every prefix
// query and the digest to agree after every step.
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
	check := func(step int, what string) {
		t.Helper()
		if st.Len() != len(oracle.data) {
			t.Fatalf("step %d (%s): %d keys, oracle has %d", step, what, st.Len(), len(oracle.data))
		}
		for _, p := range prefixes {
			if got, want := st.Keys(p), oracle.Keys(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): Keys(%q) = %q, full scan gives %q", step, what, p, got, want)
			}
		}
		if st.Digest() != oracle.digest() {
			t.Fatalf("step %d (%s): digest diverged from the full-scan digest", step, what)
		}
	}

	for step := 0; step < 400; step++ {
		var what string
		switch op := rng.Intn(10); {
		case op < 4:
			what = "direct writes"
			write(st, oracle, 1+rng.Intn(8))
		case op < 6:
			what = "namespaced writes"
			ns := []string{"a", "rec", "a-b"}[rng.Intn(3)]
			write(Namespace(st, ns), Namespace(oracle, ns), 1+rng.Intn(8))
			p := pick()
			if got, want := Namespace(st, ns).Keys(p), Namespace(oracle, ns).Keys(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: namespaced %q Keys(%q) = %q, full scan gives %q", step, ns, p, got, want)
			}
		case op < 9:
			ovA, ovB := NewOverlay(st), NewOverlay(oracle)
			write(ovA, ovB, 1+rng.Intn(12))
			p := pick()
			if got, want := ovA.Keys(p), ovB.Keys(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: overlay Keys(%q) = %q, full scan gives %q", step, p, got, want)
			}
			if rng.Intn(4) == 0 {
				what = "overlay dropped"
			} else {
				what = "overlay committed"
				ovA.Commit()
				ovB.Commit()
			}
		default:
			what = "clone takes over"
			oldSt, oldOracle := st, oracle
			st, oracle = st.Clone(), oracle.clone()
			write(oldSt, oldOracle, 5) // the original moves on; the clone must not see it
		}
		check(step, what)
	}
	if st.Len() < 20 {
		t.Fatalf("script ended with %d keys: too few to have exercised the index", st.Len())
	}
}

// BenchmarkStateKeysSparsePrefix is the block-hook access pattern: a short
// queue under one prefix beside a large and growing set of unrelated keys.
// ns/op must not depend on how many unrelated keys there are.
func BenchmarkStateKeysSparsePrefix(b *testing.B) {
	for _, unrelated := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("unrelated=%d", unrelated), func(b *testing.B) {
			st := NewState()
			for i := 0; i < unrelated; i++ {
				st.Set(fmt.Sprintf("drams.logmatch/rec/req-%07d/pep.request", i), []byte("r"))
			}
			for i := 0; i < 16; i++ {
				st.Set(fmt.Sprintf("drams.logmatch/deadline/%016x/req-%07d", 1000+i, i), []byte("1"))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := st.Keys("drams.logmatch/deadline/"); len(got) != 16 {
					b.Fatalf("%d keys under the prefix, want 16", len(got))
				}
			}
		})
	}
}
