package idgen

import (
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Short returns the first 8 hex characters, for logs and debug output.
func (id ID) Short() string { return hex.EncodeToString(id[:4]) }

// IsZero reports whether the ID is the all-zero value.
func (id ID) IsZero() bool { return id == ID{} }

// Parse decodes a 32-character hex string into an ID.
func Parse(s string) (ID, error) {
	var id ID
	if len(s) != 32 {
		return id, fmt.Errorf("idgen: parse %q: want 32 hex chars, got %d", s, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("idgen: parse %q: %w", s, err)
	}
	copy(id[:], b)
	return id, nil
}

// Sequence is a convenience atomic counter for naming things uniquely within
// a process (e.g. node identifiers in tests).
type Sequence struct{ n atomic.Uint64 }

// Next returns the next counter value, starting at 1.
func (s *Sequence) Next() uint64 { return s.n.Add(1) }

func TestGeneratorUnique(t *testing.T) {
	g := New()
	seen := make(map[ID]bool)
	for i := 0; i < 10000; i++ {
		id := g.Next()
		if seen[id] {
			t.Fatalf("duplicate ID %s at iteration %d", id, i)
		}
		seen[id] = true
	}
}

func TestGeneratorDeterministicWithSeed(t *testing.T) {
	a, b := NewSeeded(42), NewSeeded(42)
	for i := 0; i < 100; i++ {
		if ida, idb := a.Next(), b.Next(); ida != idb {
			t.Fatalf("seeded generators diverged at %d: %s vs %s", i, ida, idb)
		}
	}
}

func TestGeneratorSortedByGenerationOrder(t *testing.T) {
	g := NewSeeded(7)
	prev := g.Next()
	for i := 0; i < 1000; i++ {
		cur := g.Next()
		if cur.String() <= prev.String() {
			t.Fatalf("IDs not monotonically increasing: %s then %s", prev, cur)
		}
		prev = cur
	}
}

func TestParseRoundTrip(t *testing.T) {
	g := NewSeeded(1)
	for i := 0; i < 50; i++ {
		id := g.Next()
		parsed, err := Parse(id.String())
		if err != nil {
			t.Fatalf("Parse(%s): %v", id, err)
		}
		if parsed != id {
			t.Fatalf("round trip %s -> %s", id, parsed)
		}
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	cases := []string{"", "abc", "zz" + string(make([]byte, 30)), "0123456789abcdef0123456789abcde"}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestIDZeroAndShort(t *testing.T) {
	var z ID
	if !z.IsZero() {
		t.Fatal("zero ID not IsZero")
	}
	g := NewSeeded(3)
	id := g.Next()
	if id.IsZero() {
		t.Fatal("generated ID is zero")
	}
	if len(id.Short()) != 8 {
		t.Fatalf("Short length = %d, want 8", len(id.Short()))
	}
}

func TestGeneratorConcurrentUnique(t *testing.T) {
	g := New()
	const workers, per = 8, 2000
	var mu sync.Mutex
	seen := make(map[ID]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]ID, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, g.Next())
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate concurrent ID %s", id)
					return
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("seeded Rand diverged at %d", i)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnDistribution(t *testing.T) {
	r := NewRand(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	for v, c := range counts {
		// Each bucket expects trials/n = 10000; allow ±15%.
		if c < 8500 || c > 11500 {
			t.Errorf("Intn bucket %d count %d deviates from uniform", v, c)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandPerm(t *testing.T) {
	r := NewRand(123)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestRandBytesLen(t *testing.T) {
	r := NewRand(77)
	if err := quick.Check(func(n uint16) bool {
		b := r.Bytes(int(n % 4096))
		return len(b) == int(n%4096)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequence(t *testing.T) {
	var s Sequence
	if s.Next() != 1 || s.Next() != 2 {
		t.Fatal("Sequence did not start at 1 and increment")
	}
}
