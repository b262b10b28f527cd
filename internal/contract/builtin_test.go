package contract

import (
	"encoding/json"
	"errors"
	"testing"
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
