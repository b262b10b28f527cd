package contract

import (
	"encoding/json"
	"errors"
	"testing"

	"drams/internal/crypto"
)

func kvCall(method, key string, value []byte) Call {
	args, _ := json.Marshal(KVArgs{Key: key, Value: value})
	return Call{Contract: "kv", Method: method, Args: args}
}

func execKV(t *testing.T, e *Engine, st *State, caller, method, key string, value []byte) ([]Event, error) {
	t.Helper()
	return e.Execute(CallCtx{Caller: caller}, st, kvCall(method, key, value))
}

func newKVEngine() (*Engine, *State) {
	r := NewRegistry()
	r.MustRegister(&KVContract{ContractName: "kv"})
	r.MustRegister(&AnchorContract{ContractName: "anchor"})
	return NewEngine(r), NewState()
}

func TestKVPutGet(t *testing.T) {
	e, st := newKVEngine()
	events, err := execKV(t, e, st, "alice", "put", "greeting", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != "Put" {
		t.Fatalf("events = %+v", events)
	}
	v, ok := ReadKV(Namespace(st, "kv"), "greeting")
	if !ok || string(v) != "hello" {
		t.Fatalf("read = %q, %v", v, ok)
	}
}

func TestKVOwnership(t *testing.T) {
	e, st := newKVEngine()
	if _, err := execKV(t, e, st, "alice", "put", "k", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := execKV(t, e, st, "mallory", "put", "k", []byte("evil")); err == nil {
		t.Fatal("foreign overwrite accepted")
	}
	// Owner can update and delete.
	if _, err := execKV(t, e, st, "alice", "put", "k", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := execKV(t, e, st, "alice", "del", "k", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := ReadKV(Namespace(st, "kv"), "k"); ok {
		t.Fatal("delete failed")
	}
	// After delete, anyone can claim the key.
	if _, err := execKV(t, e, st, "mallory", "put", "k", []byte("m")); err != nil {
		t.Fatalf("reclaim after delete: %v", err)
	}
}

func TestKVBadArgs(t *testing.T) {
	e, st := newKVEngine()
	_, err := e.Execute(CallCtx{}, st, Call{Contract: "kv", Method: "put", Args: json.RawMessage(`{`)})
	if !errors.Is(err, ErrBadArgs) {
		t.Fatalf("got %v", err)
	}
	if _, err := execKV(t, e, st, "a", "put", "", nil); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("empty key: %v", err)
	}
	if _, err := execKV(t, e, st, "a", "nope", "k", nil); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
}

func anchorCall(t *testing.T, stream string, seq uint64, root crypto.Digest, count int) Call {
	t.Helper()
	args, err := json.Marshal(AnchorArgs{Stream: stream, Seq: seq, Root: root, Count: count})
	if err != nil {
		t.Fatal(err)
	}
	return Call{Contract: "anchor", Method: "anchor", Args: args}
}

func TestAnchorHappyPath(t *testing.T) {
	e, st := newKVEngine()
	root := crypto.Sum([]byte("batch-1"))
	events, err := e.Execute(CallCtx{Height: 12, Caller: "li-1"}, st, anchorCall(t, "logs", 1, root, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != "Anchored" {
		t.Fatalf("events = %+v", events)
	}
	ns := Namespace(st, "anchor")
	rec, ok := ReadAnchor(ns, "logs", 1)
	if !ok {
		t.Fatal("anchor missing")
	}
	if rec.Root != root || rec.Count != 64 || rec.Height != 12 || rec.By != "li-1" {
		t.Fatalf("rec = %+v", rec)
	}
	if head, ok := ns.Get("head/logs"); !ok || string(head) != "1" {
		t.Fatalf("head = %q, %v", head, ok)
	}
}

func TestAnchorIdempotentRetry(t *testing.T) {
	e, st := newKVEngine()
	root := crypto.Sum([]byte("b"))
	if _, err := e.Execute(CallCtx{Caller: "li"}, st, anchorCall(t, "s", 1, root, 1)); err != nil {
		t.Fatal(err)
	}
	// Same (stream, seq, root): client retry, accepted silently.
	if _, err := e.Execute(CallCtx{Caller: "li"}, st, anchorCall(t, "s", 1, root, 1)); err != nil {
		t.Fatalf("idempotent retry rejected: %v", err)
	}
}

func TestAnchorConflictRejected(t *testing.T) {
	e, st := newKVEngine()
	if _, err := e.Execute(CallCtx{Caller: "li"}, st, anchorCall(t, "s", 1, crypto.Sum([]byte("a")), 1)); err != nil {
		t.Fatal(err)
	}
	_, err := e.Execute(CallCtx{Caller: "li"}, st, anchorCall(t, "s", 1, crypto.Sum([]byte("b")), 1))
	if err == nil {
		t.Fatal("conflicting anchor accepted")
	}
	// The original record must be intact (failed call rolled back).
	rec, _ := ReadAnchor(Namespace(st, "anchor"), "s", 1)
	if rec.Root != crypto.Sum([]byte("a")) {
		t.Fatal("conflict mutated original anchor")
	}
}

func TestAnchorListOrdered(t *testing.T) {
	e, st := newKVEngine()
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := e.Execute(CallCtx{Height: seq, Caller: "li"}, st,
			anchorCall(t, "s", seq, crypto.SumAll([]byte{byte(seq)}), int(seq))); err != nil {
			t.Fatal(err)
		}
	}
	list := ListAnchors(Namespace(st, "anchor"), "s")
	if len(list) != 5 {
		t.Fatalf("list len = %d", len(list))
	}
	for i, rec := range list {
		if rec.Count != i+1 {
			t.Fatalf("list out of order: %+v", list)
		}
	}
	if head, _ := Namespace(st, "anchor").Get("head/s"); string(head) != "5" {
		t.Fatalf("head = %q", head)
	}
}

func TestAnchorSeparateStreams(t *testing.T) {
	e, st := newKVEngine()
	if _, err := e.Execute(CallCtx{Caller: "li"}, st, anchorCall(t, "a", 1, crypto.Sum([]byte("x")), 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(CallCtx{Caller: "li"}, st, anchorCall(t, "b", 1, crypto.Sum([]byte("y")), 1)); err != nil {
		t.Fatalf("stream isolation broken: %v", err)
	}
}

func TestAnchorBadMethodAndArgs(t *testing.T) {
	e, st := newKVEngine()
	if _, err := e.Execute(CallCtx{}, st, Call{Contract: "anchor", Method: "x"}); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("got %v", err)
	}
	if _, err := e.Execute(CallCtx{}, st, Call{Contract: "anchor", Method: "anchor", Args: json.RawMessage(`{]`)}); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("got %v", err)
	}
	args, _ := json.Marshal(AnchorArgs{Stream: ""})
	if _, err := e.Execute(CallCtx{}, st, Call{Contract: "anchor", Method: "anchor", Args: args}); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("empty stream: %v", err)
	}
}
