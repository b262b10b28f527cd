// Package contract implements the deterministic smart-contract engine that
// runs on the DRAMS private blockchain (paper §II: "Smart-contract
// blockchain: ... storing and comparing logs, using expressly devised
// algorithms").
//
// Contracts are ordinary Go values implementing the Contract interface. They
// execute only inside block application, must be deterministic (no wall
// clock, no randomness, no I/O — all inputs come from the transaction and the
// block context), and communicate with the off-chain world exclusively
// through emitted Events, which the blockchain node publishes to subscribers
// (the Logging Interfaces) once the containing block is part of the best
// chain.
package contract

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"drams/internal/crypto"
)

var (
	// ErrUnknownContract is returned when a call names an unregistered
	// contract.
	ErrUnknownContract = errors.New("contract: unknown contract")
	// ErrUnknownMethod is returned by contracts for unsupported methods.
	ErrUnknownMethod = errors.New("contract: unknown method")
	// ErrBadArgs is returned by contracts for malformed arguments.
	ErrBadArgs = errors.New("contract: malformed arguments")
)

// Call is the payload of a blockchain transaction: an invocation of a method
// on a named contract.
type Call struct {
	Contract string `json:"contract"`
	Method   string `json:"method"`
	// Args belong to the contract. The chain frames, hashes and stores them
	// as opaque bytes and never parses them; a contract answers args it
	// cannot decode with ErrBadArgs. The built-ins and the policy contract
	// take JSON, the log-match contract the binary probe record codec
	// (core/record.go); the RawMessage type only makes a JSON rendering of a
	// Call with JSON args show them inline.
	Args json.RawMessage `json:"args,omitempty"`
}

// CallCtx carries deterministic block context into contract execution.
type CallCtx struct {
	// Height of the block containing the transaction.
	Height uint64
	// BlockTime is the miner-declared block timestamp. It is consensus
	// data, not wall-clock truth.
	BlockTime time.Time
	// TxID identifies the executing transaction.
	TxID crypto.Digest
	// Caller is the verified component identity name that signed the
	// transaction.
	Caller string
	// Cross gives the contract read-only access to other contracts'
	// committed state (earlier transactions of the same block included).
	// Set by the engine; nil when a contract is executed standalone, so
	// contracts must treat cross-reads as optional.
	Cross CrossReader
}

// CrossReader is deterministic read-only access to another contract's
// state namespace. Reads observe the block-application state: everything
// committed up to (but not including) the currently executing transaction
// of the same block, which is identical on every replica.
type CrossReader interface {
	// Read returns the value stored under key in the named contract's
	// namespace.
	Read(contractName, key string) ([]byte, bool)
	// ReadKeys lists the named contract's keys with the given prefix,
	// sorted.
	ReadKeys(contractName, prefix string) []string
}

// crossView implements CrossReader over the engine's root state.
type crossView struct{ st StateDB }

func (c crossView) Read(contractName, key string) ([]byte, bool) {
	return c.st.Get(contractName + "/" + key)
}

func (c crossView) ReadKeys(contractName, prefix string) []string {
	full := c.st.Keys(contractName + "/" + prefix)
	out := make([]string, len(full))
	for i, k := range full {
		out[i] = strings.TrimPrefix(k, contractName+"/")
	}
	return out
}

// Event is an on-chain occurrence published to off-chain subscribers.
type Event struct {
	Contract string          `json:"contract"`
	Type     string          `json:"type"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	Height   uint64          `json:"height"`
	TxID     crypto.Digest   `json:"txId"`
}

// StateDB is the contract's view of persistent on-chain state. Keys are
// namespaced by contract name by the engine, so contracts cannot read or
// write each other's state.
type StateDB interface {
	// Get returns the stored value and whether it exists.
	Get(key string) ([]byte, bool)
	// Set stores value under key.
	Set(key string, value []byte)
	// Delete removes key.
	Delete(key string)
	// Keys returns all keys with the given prefix, sorted.
	Keys(prefix string) []string
}

// Contract is deterministic on-chain logic.
type Contract interface {
	// Name is the address under which calls are routed.
	Name() string
	// Execute applies one call. Returned events are published when the
	// containing block joins the best chain. An error aborts only this
	// transaction (its state writes are discarded), not the block.
	Execute(ctx CallCtx, st StateDB, call Call) ([]Event, error)
}

// BlockHook is implemented by contracts that run logic at every block
// boundary (e.g. the log-match contract uses it to fire timeout alerts).
// OnBlock runs after all transactions in the block have executed.
type BlockHook interface {
	OnBlock(height uint64, blockTime time.Time, st StateDB) []Event
}

// Registry maps contract names to implementations. Registration happens at
// node construction; the registry is immutable afterwards, so lookups are
// lock-free.
type Registry struct {
	mu        sync.RWMutex
	contracts map[string]Contract
	names     []string // sorted; replaced, never edited, so readers may keep it
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{contracts: make(map[string]Contract)}
}

// Register adds a contract; registering a duplicate name is an error.
func (r *Registry) Register(c Contract) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.contracts[c.Name()]; ok {
		return fmt.Errorf("contract: register %q: already registered", c.Name())
	}
	r.contracts[c.Name()] = c
	names := append(append([]string(nil), r.names...), c.Name())
	sort.Strings(names)
	r.names = names
	return nil
}

// MustRegister registers and panics on duplicates; for wiring code where a
// duplicate is a programming error.
func (r *Registry) MustRegister(c Contract) {
	if err := r.Register(c); err != nil {
		panic(err)
	}
}

// Get looks up a contract by name.
func (r *Registry) Get(name string) (Contract, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.contracts[name]
	return c, ok
}

// Names lists registered contracts, sorted. The list is kept at Register —
// the engine walks it on every block — and shared: callers must not modify
// it.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names
}

// State is the canonical StateDB implementation: an in-memory map with
// cloning (for fork execution) and nested overlay transactions (so a failed
// contract call rolls back cleanly). Values live in the map, so Get is one
// hash lookup; the key set is mirrored in an ordered index, so Keys(prefix)
// costs O(log n + matches) however many unrelated keys the state holds —
// block hooks scan a short queue ("deadline/", "sched/") on every block
// beside an ever-growing record set.
type State struct {
	mu    sync.RWMutex
	data  map[string][]byte
	index keyIndex // exactly the keys of data
}

// NewState returns an empty state.
func NewState() *State {
	return &State{data: make(map[string][]byte)}
}

// Get implements StateDB.
func (s *State) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Set implements StateDB.
func (s *State) Set(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(value))
	copy(cp, value)
	if _, ok := s.data[key]; !ok {
		s.index.insert(key)
	}
	s.data[key] = cp
}

// Delete implements StateDB.
func (s *State) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.data[key]; ok {
		s.index.remove(key)
		delete(s.data, key)
	}
}

// Keys implements StateDB.
func (s *State) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.root.appendPrefix(nil, prefix)
}

// Len returns the number of stored keys.
func (s *State) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Digest returns a deterministic digest over the full state, used by tests
// to assert replica convergence.
func (s *State) Digest() crypto.Digest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chunks := make([][]byte, 0, 2*len(s.data))
	for _, k := range s.index.root.appendPrefix(make([]string, 0, len(s.data)), "") {
		chunks = append(chunks, []byte(k), s.data[k])
	}
	return crypto.SumAll(chunks...)
}

// namespaced prefixes all keys with a contract name so contracts are
// isolated from each other.
type namespaced struct {
	inner  StateDB
	prefix string
}

// Namespace wraps st so that all keys are transparently prefixed.
func Namespace(st StateDB, contractName string) StateDB {
	return &namespaced{inner: st, prefix: contractName + "/"}
}

func (n *namespaced) Get(key string) ([]byte, bool) { return n.inner.Get(n.prefix + key) }
func (n *namespaced) Set(key string, value []byte)  { n.inner.Set(n.prefix+key, value) }
func (n *namespaced) Delete(key string)             { n.inner.Delete(n.prefix + key) }
func (n *namespaced) Keys(prefix string) []string {
	full := n.inner.Keys(n.prefix + prefix)
	out := make([]string, len(full))
	for i, k := range full {
		out[i] = strings.TrimPrefix(k, n.prefix)
	}
	return out
}

// overlay is a transactional view: writes are buffered and only applied to
// the parent on Commit, so a failed contract call leaves no trace.
type overlay struct {
	parent  StateDB
	writes  map[string][]byte
	deletes map[string]bool
}

// NewOverlay returns a transactional overlay over parent.
func NewOverlay(parent StateDB) *overlay {
	return &overlay{parent: parent, writes: make(map[string][]byte), deletes: make(map[string]bool)}
}

func (o *overlay) Get(key string) ([]byte, bool) {
	if o.deletes[key] {
		return nil, false
	}
	if v, ok := o.writes[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, true
	}
	return o.parent.Get(key)
}

func (o *overlay) Set(key string, value []byte) {
	delete(o.deletes, key)
	cp := make([]byte, len(value))
	copy(cp, value)
	o.writes[key] = cp
}

func (o *overlay) Delete(key string) {
	delete(o.writes, key)
	o.deletes[key] = true
}

func (o *overlay) Keys(prefix string) []string {
	set := make(map[string]bool)
	for _, k := range o.parent.Keys(prefix) {
		set[k] = true
	}
	for k := range o.writes {
		if strings.HasPrefix(k, prefix) {
			set[k] = true
		}
	}
	for k := range o.deletes {
		delete(set, k)
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Commit applies buffered writes to the parent.
func (o *overlay) Commit() {
	for k, v := range o.writes {
		o.parent.Set(k, v)
	}
	for k := range o.deletes {
		o.parent.Delete(k)
	}
}

// Engine executes calls against a registry with per-call isolation.
type Engine struct {
	registry *Registry
}

// NewEngine wraps a registry.
func NewEngine(r *Registry) *Engine {
	return &Engine{registry: r}
}

// Execute runs one call against state. On contract error, no state change is
// applied and the error is returned (the blockchain records the tx as failed
// but still includes it).
func (e *Engine) Execute(ctx CallCtx, st StateDB, call Call) ([]Event, error) {
	c, ok := e.registry.Get(call.Contract)
	if !ok {
		return nil, fmt.Errorf("contract: execute %q: %w", call.Contract, ErrUnknownContract)
	}
	if ctx.Cross == nil {
		// Cross-reads observe the committed block state, not the executing
		// transaction's own pending overlay.
		ctx.Cross = crossView{st: st}
	}
	ov := NewOverlay(st)
	events, err := c.Execute(ctx, Namespace(ov, call.Contract), call)
	if err != nil {
		return nil, err
	}
	ov.Commit()
	// Stamp event provenance.
	for i := range events {
		events[i].Contract = call.Contract
		events[i].Height = ctx.Height
		events[i].TxID = ctx.TxID
	}
	return events, nil
}

// OnBlock runs every registered BlockHook for the block boundary.
func (e *Engine) OnBlock(height uint64, blockTime time.Time, st StateDB) []Event {
	var events []Event
	for _, name := range e.registry.Names() {
		c, _ := e.registry.Get(name)
		hook, ok := c.(BlockHook)
		if !ok {
			continue
		}
		evs := hook.OnBlock(height, blockTime, Namespace(st, name))
		for i := range evs {
			evs[i].Contract = name
			evs[i].Height = height
		}
		events = append(events, evs...)
	}
	return events
}
