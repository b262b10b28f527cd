// Package contract implements the deterministic smart-contract engine that
// runs on the DRAMS private blockchain (paper §II: "Smart-contract
// blockchain: ... storing and comparing logs, using expressly devised
// algorithms").
//
// Contracts are ordinary Go values implementing the Contract interface. They
// execute only inside block application, must be deterministic (no wall
// clock, no randomness, no I/O — all inputs come from the transaction and the
// block context), and communicate with the off-chain world exclusively
// through emitted Events, which the blockchain keeps with the containing
// block while it is near the head of the best chain; off-chain readers
// follow the head and read them from there.
package contract

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"slices"
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
	// Cross gives the contract read-only access to other contracts' state
	// (earlier transactions of the same block included). Set by the engine;
	// nil when a contract is executed standalone, so contracts must treat
	// cross-reads as optional.
	Cross CrossReader
}

// CrossReader is deterministic read-only access to other contracts' spaces.
// Reads observe the block-application state: everything applied up to (but
// not including) the currently executing transaction of the same block,
// which is identical on every replica. No write of the executing
// transaction can reach another contract's space. Returned bytes are the
// stored ones and must not be modified.
type CrossReader interface {
	// Read returns the value stored under key in the named contract's
	// space.
	Read(contractName, key string) ([]byte, bool)
	// ReadKeys yields the named contract's keys with the given prefix, in
	// byte order.
	ReadKeys(contractName, prefix string) iter.Seq[string]
}

// crossView implements CrossReader over the engine's state.
type crossView struct{ st *State }

func (c crossView) Read(contractName, key string) ([]byte, bool) {
	return c.st.View(contractName).Get(key)
}

func (c crossView) ReadKeys(contractName, prefix string) iter.Seq[string] {
	return c.st.View(contractName).Keys(prefix)
}

// Event is an on-chain occurrence that off-chain readers take from the
// best chain's blocks.
type Event struct {
	Contract string          `json:"contract"`
	Type     string          `json:"type"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	Height   uint64          `json:"height"`
	TxID     crypto.Digest   `json:"txId"`
}

// StateDB is a contract's view of its persistent on-chain state: its own
// space of a State, so contracts cannot read or write each other's state.
type StateDB interface {
	// Get returns the stored value and whether it exists. The bytes are the
	// stored ones, not a copy: they must not be modified.
	Get(key string) ([]byte, bool)
	// Set stores a copy of value under key.
	Set(key string, value []byte)
	// Delete removes key.
	Delete(key string)
	// Keys yields the keys with the given prefix in byte order, and stops
	// when the caller does. The state must not be written while it runs.
	Keys(prefix string) iter.Seq[string]
}

// Contract is deterministic on-chain logic.
type Contract interface {
	// Name is the address under which calls are routed.
	Name() string
	// Execute applies one call. Returned events reach off-chain readers
	// when the containing block joins the best chain. An error aborts only
	// this transaction (its state writes are discarded), not the block.
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

// State is the canonical state: one space per contract, each a map of the
// contract's values beside an ordered index of its keys, so Get is one hash
// lookup and Keys(prefix) costs O(log n + what the caller reads) however
// many unrelated keys the contract holds. A State has no lock: the chain
// applies blocks under its write lock and reads under its read lock.
//
// Every write is journalled with the value it replaced. A position in the
// journal is a mark (Mark): a call that fails is reverted in place to the
// mark taken when it started (Engine.Execute), and the chain keeps the
// writes between a block's first and last mark as the block's undo list,
// reverting to the block's first mark to take it off the best chain. Forget
// tells the journal how far back no revert reaches any more. Stored slices
// are never written in place (Set stores a copy; a revert puts the prior
// slice back), so Get returns the stored slice, whose bytes must not be
// modified.
type State struct {
	spaces  map[string]*space
	ordered []*space // by name+"/", the byte order of the full keys
	journal journal
	scratch []byte // see Scratch
}

// space is one contract's part of a State.
type space struct {
	st    *State
	name  string
	data  map[string][]byte
	index keyIndex // exactly the keys of data
}

// undo is one journalled write: what its key held before.
type undo struct {
	sp      *space
	key     string
	prior   []byte
	existed bool
}

// revert puts back what u's key held before its write.
func (u *undo) revert() {
	_, present := u.sp.data[u.key]
	switch {
	case u.existed:
		if !present {
			u.sp.index.insert(u.key)
		}
		u.sp.data[u.key] = u.prior
	case present:
		u.sp.index.remove(u.key)
		delete(u.sp.data, u.key)
	}
}

// journalChunk is how many writes one chunk of the journal holds.
const journalChunk = 512

// journal is the log of a State's writes, oldest first, in fixed-size
// chunks: the log grows a chunk at a time, and a chunk is reused once every
// entry in it is reverted or forgotten, so a journal that keeps a bounded
// window of writes allocates nothing once it has grown to that window.
type journal struct {
	chunks []*[journalChunk]undo // chunks[0][0] is at position base
	base   uint64
	end    uint64                // the position of the next write
	free   []*[journalChunk]undo // cleared chunks, for reuse
}

// push appends u at position end.
func (j *journal) push(u undo) {
	i := j.end - j.base
	if i == uint64(len(j.chunks))*journalChunk {
		var c *[journalChunk]undo
		if n := len(j.free); n > 0 {
			c, j.free = j.free[n-1], j.free[:n-1]
		} else {
			c = new([journalChunk]undo)
		}
		j.chunks = append(j.chunks, c)
	}
	j.chunks[i/journalChunk][i%journalChunk] = u
	j.end++
}

// at returns the entry at position p.
func (j *journal) at(p uint64) *undo {
	i := p - j.base
	return &j.chunks[i/journalChunk][i%journalChunk]
}

// NewState returns an empty state.
func NewState() *State {
	return &State{spaces: make(map[string]*space)}
}

// Namespace returns the named contract's space of st, adding it on first
// use. Keys are private to a space, so contracts cannot read or write each
// other's state through it.
func Namespace(st *State, contractName string) StateDB {
	if sp := st.spaces[contractName]; sp != nil {
		return sp
	}
	sp := &space{st: st, name: contractName, data: make(map[string][]byte)}
	st.spaces[contractName] = sp
	i, _ := slices.BinarySearchFunc(st.ordered, contractName+"/", func(o *space, full string) int {
		return strings.Compare(o.name+"/", full)
	})
	st.ordered = slices.Insert(st.ordered, i, sp)
	return sp
}

// View returns the named contract's space for reading. Unlike Namespace it
// never adds a space, so readers sharing a lock may call it together; a
// contract that has stored nothing reads as empty, and writing through its
// view panics.
func (s *State) View(contractName string) StateDB {
	if sp := s.spaces[contractName]; sp != nil {
		return sp
	}
	return emptySpace{}
}

// Get implements StateDB.
func (sp *space) Get(key string) ([]byte, bool) {
	v, ok := sp.data[key]
	return v, ok
}

// Set implements StateDB.
func (sp *space) Set(key string, value []byte) {
	prior, existed := sp.data[key]
	sp.st.journal.push(undo{sp: sp, key: key, prior: prior, existed: existed})
	if !existed {
		sp.index.insert(key)
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	sp.data[key] = cp
}

// Delete implements StateDB.
func (sp *space) Delete(key string) {
	prior, ok := sp.data[key]
	if !ok {
		return
	}
	sp.st.journal.push(undo{sp: sp, key: key, prior: prior, existed: true})
	sp.index.remove(key)
	delete(sp.data, key)
}

// Keys implements StateDB.
func (sp *space) Keys(prefix string) iter.Seq[string] {
	return func(yield func(string) bool) { sp.index.root.walkPrefix(prefix, yield) }
}

// Scratch returns an empty buffer of capacity at least n for a contract to
// build a value in before Set, which stores a copy. The buffer belongs to
// st's State, which applies one call at a time, and the next Scratch call on
// that State hands it out again, so a contract keeps nothing built in it
// past its Set. A StateDB that is not a space of a State gets a fresh buffer.
func Scratch(st StateDB, n int) []byte {
	sp, ok := st.(*space)
	if !ok {
		return make([]byte, 0, n)
	}
	if cap(sp.st.scratch) < n {
		sp.st.scratch = make([]byte, 0, max(n, 2*cap(sp.st.scratch)))
	}
	return sp.st.scratch[:0]
}

// FirstKey returns the first key of st with the given prefix in byte order,
// the one ranging over st.Keys(prefix) yields first. On a space of a State
// it reads the key index directly, with no iterator to allocate: the block
// hooks ask it on every block.
func FirstKey(st StateDB, prefix string) (string, bool) {
	if sp, ok := st.(*space); ok {
		return sp.index.root.firstWithPrefix(prefix)
	}
	return firstKeyOf(st, prefix)
}

// firstKeyOf is FirstKey through Keys, for any StateDB.
func firstKeyOf(st StateDB, prefix string) (string, bool) {
	for key := range st.Keys(prefix) {
		return key, true
	}
	return "", false
}

// emptySpace is the view of a contract that has stored nothing.
type emptySpace struct{}

func (emptySpace) Get(string) ([]byte, bool)    { return nil, false }
func (emptySpace) Set(string, []byte)           { panic("contract: write through a read-only view") }
func (emptySpace) Delete(string)                { panic("contract: write through a read-only view") }
func (emptySpace) Keys(string) iter.Seq[string] { return func(func(string) bool) {} }

// Mark returns the journal's position after the last write: reverting to
// it undoes every write made since.
func (s *State) Mark() uint64 { return s.journal.end }

// Revert undoes the writes made since mark, newest first, and takes them
// off the journal. mark must not lie below one passed to Forget.
func (s *State) Revert(mark uint64) {
	j := &s.journal
	if mark < j.base || mark > j.end {
		panic(fmt.Sprintf("contract: revert to %d, journal holds %d to %d", mark, j.base, j.end))
	}
	for p := j.end; p > mark; p-- {
		u := j.at(p - 1)
		u.revert()
		*u = undo{}
	}
	j.end = mark
	keep := (mark - j.base + journalChunk - 1) / journalChunk
	j.free = append(j.free, j.chunks[keep:]...)
	clear(j.chunks[keep:])
	j.chunks = j.chunks[:keep]
}

// Forget tells the journal that no revert goes below mark, so the chunks
// whose every entry lies below it are cleared and reused.
func (s *State) Forget(mark uint64) {
	j := &s.journal
	k := 0
	for k < len(j.chunks) && j.base+journalChunk <= mark {
		clear(j.chunks[k][:])
		j.free = append(j.free, j.chunks[k])
		j.base += journalChunk
		k++
	}
	n := copy(j.chunks, j.chunks[k:])
	clear(j.chunks[n:])
	j.chunks = j.chunks[:n]
}

// Len returns the number of stored keys.
func (s *State) Len() int {
	n := 0
	for _, sp := range s.ordered {
		n += len(sp.data)
	}
	return n
}

// Digest returns a deterministic digest over the full state, used to assert
// replica convergence. It is crypto.SumAll over each full key
// (contract name, '/', key) and its value in byte order of the full keys,
// streamed into one hash.
func (s *State) Digest() crypto.Digest {
	h := sha256.New()
	var frame []byte
	for _, sp := range s.ordered {
		for k := range sp.Keys("") {
			v := sp.data[k]
			frame = binary.BigEndian.AppendUint64(frame[:0], uint64(len(sp.name)+1+len(k)))
			frame = append(append(append(frame, sp.name...), '/'), k...)
			frame = binary.BigEndian.AppendUint64(frame, uint64(len(v)))
			h.Write(frame)
			h.Write(v)
		}
	}
	var d crypto.Digest
	h.Sum(d[:0])
	return d
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
// but still includes it): the call's writes are reverted to the mark taken
// when it started, and the writes before it stay.
func (e *Engine) Execute(ctx CallCtx, st *State, call Call) ([]Event, error) {
	c, ok := e.registry.Get(call.Contract)
	if !ok {
		return nil, fmt.Errorf("contract: execute %q: %w", call.Contract, ErrUnknownContract)
	}
	if ctx.Cross == nil {
		ctx.Cross = crossView{st: st}
	}
	mark := st.Mark()
	events, err := c.Execute(ctx, Namespace(st, call.Contract), call)
	if err != nil {
		st.Revert(mark)
		return nil, err
	}
	// Stamp event provenance.
	for i := range events {
		events[i].Contract = call.Contract
		events[i].Height = ctx.Height
		events[i].TxID = ctx.TxID
	}
	return events, nil
}

// OnBlock runs every registered BlockHook for the block boundary.
func (e *Engine) OnBlock(height uint64, blockTime time.Time, st *State) []Event {
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
