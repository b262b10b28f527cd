package contract

import (
	"encoding/json"
	"errors"
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

func TestStateBasicOps(t *testing.T) {
	s := NewState()
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

func TestStateCopySemantics(t *testing.T) {
	s := NewState()
	in := []byte("abc")
	s.Set("k", in)
	in[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatal("Set did not copy")
	}
	v[0] = 'Y'
	v2, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatal("Get did not copy")
	}
}

func TestStateKeysSortedPrefix(t *testing.T) {
	s := NewState()
	for _, k := range []string{"b/1", "a/2", "a/1", "c"} {
		s.Set(k, nil)
	}
	got := s.Keys("a/")
	if len(got) != 2 || got[0] != "a/1" || got[1] != "a/2" {
		t.Fatalf("keys = %v", got)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStateCloneIndependent(t *testing.T) {
	s := NewState()
	s.Set("k", []byte("orig"))
	c := s.Clone()
	c.Set("k", []byte("changed"))
	c.Set("new", []byte("x"))
	if v, _ := s.Get("k"); string(v) != "orig" {
		t.Fatal("clone mutated parent")
	}
	if _, ok := s.Get("new"); ok {
		t.Fatal("clone write leaked to parent")
	}
}

func TestStateDigestDeterministicOrderIndependent(t *testing.T) {
	a, b := NewState(), NewState()
	a.Set("x", []byte("1"))
	a.Set("y", []byte("2"))
	b.Set("y", []byte("2"))
	b.Set("x", []byte("1"))
	if a.Digest() != b.Digest() {
		t.Fatal("insertion order changed digest")
	}
	b.Set("z", []byte("3"))
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
			a.Set(k, valueOf(k))
		}
		for i := len(keys) - 1; i >= 0; i-- {
			b.Set(keys[i], valueOf(keys[i]))
		}
		return a.Digest() == b.Digest()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
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
	if keys := n1.Keys(""); len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("n1 keys = %v", keys)
	}
	n1.Delete("k")
	if _, ok := n1.Get("k"); ok {
		t.Fatal("delete failed")
	}
	if _, ok := n2.Get("k"); !ok {
		t.Fatal("delete crossed namespaces")
	}
}

func TestOverlayCommitAndRollback(t *testing.T) {
	s := NewState()
	s.Set("base", []byte("b"))
	ov := NewOverlay(s)
	ov.Set("new", []byte("n"))
	ov.Delete("base")
	// Parent untouched before commit.
	if _, ok := s.Get("new"); ok {
		t.Fatal("overlay write visible before commit")
	}
	if _, ok := s.Get("base"); !ok {
		t.Fatal("overlay delete visible before commit")
	}
	// Overlay view is consistent.
	if _, ok := ov.Get("base"); ok {
		t.Fatal("overlay sees deleted key")
	}
	if v, ok := ov.Get("new"); !ok || string(v) != "n" {
		t.Fatal("overlay missing own write")
	}
	ov.Commit()
	if _, ok := s.Get("new"); !ok {
		t.Fatal("commit lost write")
	}
	if _, ok := s.Get("base"); ok {
		t.Fatal("commit lost delete")
	}
}

func TestOverlayKeysMerge(t *testing.T) {
	s := NewState()
	s.Set("a", nil)
	s.Set("b", nil)
	ov := NewOverlay(s)
	ov.Set("c", nil)
	ov.Delete("a")
	got := ov.Keys("")
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("overlay keys = %v", got)
	}
}

func TestOverlaySetAfterDelete(t *testing.T) {
	s := NewState()
	s.Set("k", []byte("old"))
	ov := NewOverlay(s)
	ov.Delete("k")
	ov.Set("k", []byte("new"))
	if v, ok := ov.Get("k"); !ok || string(v) != "new" {
		t.Fatalf("got %q, %v", v, ok)
	}
	ov.Commit()
	if v, _ := s.Get("k"); string(v) != "new" {
		t.Fatalf("committed %q", v)
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
	v, ok := Namespace(st, "echo").Get("last-caller")
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
	r.MustRegister(&KVContract{ContractName: "kv"}) // no hook: must be skipped
	e := NewEngine(r)
	st := NewState()
	events := e.OnBlock(5, time.Unix(0, 0), st)
	if len(events) != 1 || events[0].Type != "Tick" || events[0].Height != 5 || events[0].Contract != "h" {
		t.Fatalf("events = %+v", events)
	}
	if v, ok := Namespace(st, "h").Get("height-seen"); !ok || v[0] != 5 {
		t.Fatal("hook state write lost")
	}
}
