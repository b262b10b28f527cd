package contract

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"drams/internal/crypto"
)

// echoContract is a test contract recording calls and optionally failing.
type echoContract struct {
	name    string
	failOn  string
	onBlock func(height uint64, st StateDB) []Event
}

func (e *echoContract) Name() string { return e.name }

func (e *echoContract) Execute(ctx CallCtx, st StateDB, call Call) ([]Event, error) {
	if call.Method == e.failOn {
		st.Set("should-not-persist", []byte("x"))
		return nil, errors.New("forced failure")
	}
	st.Set("last-method", []byte(call.Method))
	st.Set("last-caller", []byte(ctx.Caller))
	return []Event{{Type: "Echo", Payload: call.Args}}, nil
}

func (e *echoContract) OnBlock(height uint64, blockTime time.Time, st StateDB) []Event {
	if e.onBlock != nil {
		return e.onBlock(height, st)
	}
	return nil
}

// scriptContract runs fn as its one method, so a test can make any write
// inside a transaction and fail it or not.
type scriptContract struct {
	name string
	fn   func(st StateDB) error
}

func (c *scriptContract) Name() string { return c.name }

func (c *scriptContract) Execute(_ CallCtx, st StateDB, _ Call) ([]Event, error) {
	return nil, c.fn(st)
}

// inTx runs fn inside one transaction on the "c" space of st and returns
// the call's error.
func inTx(st *State, fn func(st StateDB) error) error {
	r := NewRegistry()
	r.MustRegister(&scriptContract{name: "c", fn: fn})
	_, err := NewEngine(r).Execute(CallCtx{}, st, Call{Contract: "c"})
	return err
}

var errForced = errors.New("forced failure")

func TestStateBasicOps(t *testing.T) {
	s := Namespace(NewState(), "c")
	s.Set("a", []byte("1"))
	v, ok := s.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key present")
	}
	if _, ok := s.Get("never"); ok {
		t.Fatal("phantom key")
	}
}

// TestStateCopySemantics: Set stores a copy, Get returns the stored slice,
// and no write, committed or rolled back, changes a slice a reader holds.
func TestStateCopySemantics(t *testing.T) {
	st := NewState()
	s := Namespace(st, "c")
	in := []byte("abc")
	s.Set("k", in)
	in[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatal("Set did not copy")
	}
	if again, _ := s.Get("k"); &again[0] != &v[0] {
		t.Fatal("Get copied the stored value")
	}
	if err := inTx(st, func(s StateDB) error {
		s.Set("k", []byte("new"))
		s.Delete("k")
		return errForced
	}); err == nil {
		t.Fatal("expected failure")
	}
	if err := inTx(st, func(s StateDB) error { s.Set("k", []byte("xyz")); return nil }); err != nil {
		t.Fatal(err)
	}
	if string(v) != "abc" {
		t.Fatalf("a held value changed to %q", v)
	}
	if now, _ := s.Get("k"); string(now) != "xyz" {
		t.Fatalf("stored %q", now)
	}
}

func TestStateKeysSortedPrefix(t *testing.T) {
	st := NewState()
	s := Namespace(st, "c")
	for _, k := range []string{"b/1", "a/2", "a/1", "c"} {
		s.Set(k, nil)
	}
	Namespace(st, "other").Set("a/0", nil)
	got := slices.Collect(s.Keys("a/"))
	if len(got) != 2 || got[0] != "a/1" || got[1] != "a/2" {
		t.Fatalf("keys = %v", got)
	}
	if st.Len() != 5 {
		t.Fatalf("len = %d", st.Len())
	}
}

func TestStateCloneIndependent(t *testing.T) {
	s := NewState()
	Namespace(s, "c").Set("k", []byte("orig"))
	c := s.Clone()
	Namespace(c, "c").Set("k", []byte("changed"))
	Namespace(c, "c").Set("new", []byte("x"))
	if v, _ := Namespace(s, "c").Get("k"); string(v) != "orig" {
		t.Fatal("clone mutated parent")
	}
	if _, ok := Namespace(s, "c").Get("new"); ok {
		t.Fatal("clone write leaked to parent")
	}
}

func TestStateDigestDeterministicOrderIndependent(t *testing.T) {
	a, b := NewState(), NewState()
	Namespace(a, "c").Set("x", []byte("1"))
	Namespace(a, "d").Set("y", []byte("2"))
	Namespace(b, "d").Set("y", []byte("2"))
	Namespace(b, "c").Set("x", []byte("1"))
	if a.Digest() != b.Digest() {
		t.Fatal("insertion order changed digest")
	}
	Namespace(b, "c").Set("z", []byte("3"))
	if a.Digest() == b.Digest() {
		t.Fatal("different states share digest")
	}
}

func TestStateDigestProperty(t *testing.T) {
	// Value is derived from the key so duplicate keys in the generated
	// input cannot make insertion order observable.
	valueOf := func(k string) []byte {
		d := crypto.Sum([]byte(k))
		return d[:]
	}
	if err := quick.Check(func(keys []string) bool {
		a, b := NewState(), NewState()
		for _, k := range keys {
			Namespace(a, "c").Set(k, valueOf(k))
		}
		for i := len(keys) - 1; i >= 0; i-- {
			Namespace(b, "c").Set(keys[i], valueOf(keys[i]))
		}
		return a.Digest() == b.Digest()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStateDigestMatchesSumAll: the streamed digest is crypto.SumAll over
// every full key (name, '/', key) and its value, in byte order of the full
// keys. The names include ones whose order differs from the order of their
// spaces' full keys ("a-b" < "a" + "/" but "a" < "a-b").
func TestStateDigestMatchesSumAll(t *testing.T) {
	names := []string{"a", "a-b", "a.b", "a0", "ab", "b", "drams.logmatch"}
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 20; round++ {
		st, full := NewState(), map[string][]byte{}
		for i := rng.Intn(60); i > 0; i-- {
			name := names[rng.Intn(len(names))]
			key := fmt.Sprintf("%x/%d", rng.Intn(8), rng.Intn(4))
			val := make([]byte, rng.Intn(40))
			rng.Read(val)
			Namespace(st, name).Set(key, val)
			full[name+"/"+key] = val
		}
		keys := slices.Sorted(maps.Keys(full))
		var chunks [][]byte
		for _, k := range keys {
			chunks = append(chunks, []byte(k), full[k])
		}
		if got, want := st.Digest(), crypto.SumAll(chunks...); got != want {
			t.Fatalf("round %d: Digest %s, SumAll %s over %d keys", round, got.Short(), want.Short(), len(keys))
		}
	}
}

func TestNamespaceIsolation(t *testing.T) {
	s := NewState()
	n1 := Namespace(s, "c1")
	n2 := Namespace(s, "c2")
	n1.Set("k", []byte("one"))
	n2.Set("k", []byte("two"))
	v1, _ := n1.Get("k")
	v2, _ := n2.Get("k")
	if string(v1) != "one" || string(v2) != "two" {
		t.Fatalf("namespaces leaked: %q %q", v1, v2)
	}
	if keys := slices.Collect(n1.Keys("")); len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("n1 keys = %v", keys)
	}
	n1.Delete("k")
	if _, ok := n1.Get("k"); ok {
		t.Fatal("delete failed")
	}
	if _, ok := n2.Get("k"); !ok {
		t.Fatal("delete crossed namespaces")
	}
	if _, ok := s.View("c3").Get("k"); ok || s.Len() != 1 {
		t.Fatal("a view of an unused contract is not empty")
	}
}

// TestJournalCallSeesOwnWrites: inside a call, reads see the call's own
// writes and deletes; a committed call keeps them.
func TestJournalCallSeesOwnWrites(t *testing.T) {
	st := NewState()
	Namespace(st, "c").Set("base", []byte("b"))
	err := inTx(st, func(s StateDB) error {
		s.Set("new", []byte("n"))
		s.Delete("base")
		if _, ok := s.Get("base"); ok {
			t.Error("call sees the key it deleted")
		}
		if v, ok := s.Get("new"); !ok || string(v) != "n" {
			t.Error("call misses its own write")
		}
		if keys := slices.Collect(s.Keys("")); !slices.Equal(keys, []string{"new"}) {
			t.Errorf("keys inside the call = %v", keys)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := Namespace(st, "c")
	if _, ok := s.Get("new"); !ok {
		t.Fatal("commit lost write")
	}
	if _, ok := s.Get("base"); ok {
		t.Fatal("commit lost delete")
	}
	if len(st.journal) != 0 || st.inTx {
		t.Fatalf("journal left open: %d entries", len(st.journal))
	}
}

// TestJournalSetAfterDelete: a call that deletes a key and sets it again
// keeps the new value, and a failed one puts the old value back under its
// index entry.
func TestJournalSetAfterDelete(t *testing.T) {
	for _, fail := range []bool{false, true} {
		st := NewState()
		Namespace(st, "c").Set("k", []byte("old"))
		err := inTx(st, func(s StateDB) error {
			s.Delete("k")
			s.Set("k", []byte("new"))
			if v, ok := s.Get("k"); !ok || string(v) != "new" {
				t.Errorf("got %q, %v", v, ok)
			}
			if fail {
				return errForced
			}
			return nil
		})
		if (err != nil) != fail {
			t.Fatalf("fail=%v: err %v", fail, err)
		}
		want := map[bool]string{false: "new", true: "old"}[fail]
		s := Namespace(st, "c")
		if v, _ := s.Get("k"); string(v) != want {
			t.Fatalf("fail=%v: stored %q, want %q", fail, v, want)
		}
		if keys := slices.Collect(s.Keys("")); !slices.Equal(keys, []string{"k"}) {
			t.Fatalf("fail=%v: keys = %v", fail, keys)
		}
	}
}

// TestJournalFailedCallLeavesNoKey: a failed call leaves no value and no
// index entry for a key it added, and restores what it deleted.
func TestJournalFailedCallLeavesNoKey(t *testing.T) {
	st := NewState()
	s := Namespace(st, "c")
	s.Set("a", nil)
	s.Set("b", nil)
	before := st.Digest()
	err := inTx(st, func(s StateDB) error {
		s.Set("c", nil)
		s.Delete("a")
		if keys := slices.Collect(s.Keys("")); !slices.Equal(keys, []string{"b", "c"}) {
			t.Errorf("keys inside the call = %v", keys)
		}
		return errForced
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	if _, ok := s.Get("c"); ok {
		t.Fatal("failed call left its value")
	}
	if keys := slices.Collect(s.Keys("")); !slices.Equal(keys, []string{"a", "b"}) {
		t.Fatalf("keys after the failed call = %v", keys)
	}
	if st.Digest() != before || st.Len() != 2 {
		t.Fatal("failed call changed the state")
	}
}

func TestRegistryDuplicate(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&echoContract{name: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&echoContract{name: "c"}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "c" {
		t.Fatalf("names = %v", names)
	}
}

func TestEngineExecuteSuccess(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(&echoContract{name: "echo"})
	e := NewEngine(r)
	st := NewState()
	ctx := CallCtx{Height: 7, Caller: "alice", TxID: crypto.Sum([]byte("tx"))}
	events, err := e.Execute(ctx, st, Call{Contract: "echo", Method: "hi", Args: json.RawMessage(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != "Echo" {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Height != 7 || events[0].Contract != "echo" || events[0].TxID != ctx.TxID {
		t.Fatalf("event provenance = %+v", events[0])
	}
	v, ok := st.View("echo").Get("last-caller")
	if !ok || string(v) != "alice" {
		t.Fatalf("state = %q, %v", v, ok)
	}
}

func TestEngineExecuteFailureRollsBack(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(&echoContract{name: "echo", failOn: "boom"})
	e := NewEngine(r)
	st := NewState()
	_, err := e.Execute(CallCtx{}, st, Call{Contract: "echo", Method: "boom"})
	if err == nil {
		t.Fatal("expected failure")
	}
	if st.Len() != 0 {
		t.Fatalf("failed call persisted state: %d keys", st.Len())
	}
}

func TestEngineUnknownContract(t *testing.T) {
	e := NewEngine(NewRegistry())
	_, err := e.Execute(CallCtx{}, NewState(), Call{Contract: "ghost"})
	if !errors.Is(err, ErrUnknownContract) {
		t.Fatalf("got %v", err)
	}
}

func TestEngineOnBlockHooks(t *testing.T) {
	r := NewRegistry()
	hook := &echoContract{name: "h", onBlock: func(height uint64, st StateDB) []Event {
		st.Set("height-seen", []byte{byte(height)})
		return []Event{{Type: "Tick"}}
	}}
	r.MustRegister(hook)
	r.MustRegister(&scriptContract{name: "kv", fn: func(StateDB) error { return nil }}) // no hook: must be skipped
	e := NewEngine(r)
	st := NewState()
	events := e.OnBlock(5, time.Unix(0, 0), st)
	if len(events) != 1 || events[0].Type != "Tick" || events[0].Height != 5 || events[0].Contract != "h" {
		t.Fatalf("events = %+v", events)
	}
	if v, ok := st.View("h").Get("height-seen"); !ok || v[0] != 5 {
		t.Fatal("hook state write lost")
	}
}
