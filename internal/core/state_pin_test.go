package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"drams/internal/blockchain"
	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/idgen"
	"drams/internal/xacml"
)

// pinnedScriptDigest is the state digest of the scripted chain below. Replica
// tests only show that two nodes of one build agree; this shows that a build
// computes the state its predecessor did. It changes only with a deliberate
// change to contract semantics or state layout, which must say so.
//
// Re-pinned four times, each time for layout changes and no semantic one
// (the verdict stream below did not move):
//   - when crypto.Digest became a hex string in every JSON value the policy
//     contract stores, and the log-match contract began storing fixed-layout
//     rows under rec/ and verdict/ instead of the JSON records (before:
//     4208bbec…f31145, unchanged from 8dc68a8 to 2449793);
//   - when probe records went binary: a rec/ row carries the origin tenant
//     beside the tenant, row hashes are over the binary record and verdict
//     encodings, and the policy contract's meta/<version> row is
//     32B digest | u64 height | by instead of JSON (before: 1833ab12…3b5d4e);
//   - when a matched exchange began folding at its M3 deadline: req-a and
//     req-b each keep one done/ tombstone row (four record hashes and the
//     verdict hash) in place of their rec/, verdict/ and deadline-set/ rows
//     (before: 1a4d93ab…8d66f1);
//   - when batch/ rows were no longer written: a logbatch keeps its root in
//     its transaction's args only, so the batch/<root> row each scripted
//     logbatch left is gone (before: dc504c46…727fa6).
const pinnedScriptDigest = "dea98b970393d0b544a6c73fa98eaf275ae9873fbe7616e006d4c499ccbad616"

// pinnedVerdictStream is the digest of what an observer of the scripted chain
// sees, in order: every Alert (type, request, height) and every Matched
// (request, height). It was computed at 2449793, before digests became hex
// and stored records became rows, and must never move with a layout change:
// LogStored and VerdictStored payloads, whose bytes do, are left out.
const pinnedVerdictStream = "8d3ddbc2250df6ed8f472db4b3bf48f0fb4a3e9b34e6168b8e6c441548d706c7"

// scriptChain is a chain driven block by block with fixed identities, fixed
// timestamps and a fixed miner seed, so every byte that reaches contract
// state is reproducible.
type scriptChain struct {
	t      *testing.T
	chain  *blockchain.Chain
	read   blockchain.Cursor // the last block observe read
	ids    map[string]*crypto.Identity
	calls  []scriptCall    // queued for the next block
	perm   *idgen.Rand     // when set, shuffles each block's transactions
	stream strings.Builder // the verdict stream, one line per event
}

// scriptCall is one queued call and the identity that sends it.
type scriptCall struct {
	from string
	call contract.Call
}

func newScriptChain(t *testing.T) *scriptChain {
	t.Helper()
	s := &scriptChain{t: t, ids: map[string]*crypto.Identity{}}
	var pubs []crypto.PublicIdentity
	for i, name := range []string{"li-t1", "li-infra", "analyser", "pap"} {
		var seed [32]byte
		copy(seed[:], name)
		seed[31] = byte(i + 1)
		s.ids[name] = crypto.NewIdentityFromSeed(name, seed)
		pubs = append(pubs, s.ids[name].Public())
	}
	reg := contract.NewRegistry()
	reg.MustRegister(NewLogMatchContract(MatchConfig{TimeoutBlocks: 3, Analyser: "analyser", RequireVerdict: true}))
	reg.MustRegister(&PolicyContract{PAP: "pap"})
	s.chain = blockchain.NewChain(blockchain.Config{
		Difficulty: 4,
		Identities: pubs,
		Registry:   reg,
	})
	return s
}

// observe appends the alerts and matches of the blocks added since its last
// read to the verdict stream.
func (s *scriptChain) observe() {
	blocks, next, _ := s.chain.EventsAfter(s.read)
	s.read = next
	for _, b := range blocks {
		for _, ev := range b.Events {
			switch ev.Type {
			case EventAlert:
				a, err := DecodeAlert(ev.Payload)
				if err != nil {
					s.t.Errorf("alert payload: %v", err)
				}
				fmt.Fprintf(&s.stream, "alert %s %s %d\n", a.Type, a.ReqID, a.Height)
			case EventMatched:
				reqID, height, err := decodeMatched(ev.Payload)
				if err != nil {
					s.t.Errorf("matched payload: %v", err)
				}
				fmt.Fprintf(&s.stream, "matched %s %d\n", reqID, height)
			}
		}
	}
}

// send queues one call from the named identity for the next block.
func (s *scriptChain) send(from, contractName, method string, args []byte) {
	s.calls = append(s.calls, scriptCall{from, contract.Call{Contract: contractName, Method: method, Args: args}})
}

func (s *scriptChain) log(from string, rec LogRecord) {
	s.send(from, ContractName, MethodLogBatch, logArgs(rec))
}

// seal signs the queued calls, in a seeded shuffle when perm is set, mines
// them into the next block and imports it.
func (s *scriptChain) seal() {
	s.t.Helper()
	calls := s.calls
	s.calls = nil
	if s.perm != nil {
		shuffled := make([]scriptCall, len(calls))
		for i, j := range s.perm.Perm(len(calls)) {
			shuffled[i] = calls[j]
		}
		calls = shuffled
	}
	head, height := s.chain.Head()
	var txs []blockchain.Transaction
	for _, c := range calls {
		tx, err := blockchain.NewTransaction(s.ids[c.from], height, c.call)
		if err != nil {
			s.t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	addBlock(s.t, s.chain, head, txs...)
	s.observe()
}

// addBlock mines txs into a child of parent, timestamped 100 ms per height
// after genesis, and adds it to c.
func addBlock(t *testing.T, c *blockchain.Chain, parent crypto.Digest, txs ...blockchain.Transaction) *blockchain.Block {
	t.Helper()
	pb, ok := c.BlockByHash(parent)
	if !ok {
		t.Fatalf("no parent block %s", parent.Short())
	}
	genesis, _ := c.BlockByHeight(0)
	height := pb.Header.Height + 1
	b := &blockchain.Block{
		Header: blockchain.BlockHeader{
			Height:       height,
			PrevHash:     parent,
			MerkleRoot:   blockchain.ComputeMerkleRoot(txs),
			TimeUnixNano: genesis.Header.TimeUnixNano + int64(height)*int64(100*time.Millisecond),
			Difficulty:   c.Config().Difficulty,
			Miner:        "script",
		},
		Txs: txs,
	}
	if !blockchain.Mine(context.Background(), b, 0) {
		t.Fatal("mining failed")
	}
	if err := c.AddBlock(b); err != nil {
		t.Fatalf("block %d: %v", height, err)
	}
	return b
}

func TestScriptedChainStateDigestPinned(t *testing.T) {
	s := newScriptChain(t)
	s.run()
	s.chain.ReadState(ContractName, func(st contract.StateDB) {
		for _, want := range []string{"done/req-a", "done/req-b", "alerted/req-lost/" + string(AlertMessageSuppressed),
			"alerted/req-c/" + string(AlertEnforcementMismatch)} {
			if _, ok := st.Get(want); !ok {
				t.Errorf("script did not produce %s", want)
			}
		}
		if left := slices.Collect(st.Keys("deadline/")); len(left) != 0 {
			t.Errorf("deadlines still queued after they passed: %v", left)
		}
	})
	s.chain.ReadState(PolicyContractName, func(st contract.StateDB) {
		if ver, _, _ := ReadActivePolicy(st); ver != "v2" {
			t.Errorf("active policy %q, want v2", ver)
		}
	})
	if got := crypto.Sum([]byte(s.stream.String())).String(); got != pinnedVerdictStream {
		t.Errorf("verdict stream digest %s, pinned %s; stream:\n%s", got, pinnedVerdictStream, s.stream.String())
	}
	if got := s.chain.StateDigest().String(); got != pinnedScriptDigest {
		t.Fatalf("state digest %s, pinned %s", got, pinnedScriptDigest)
	}
}

// TestScriptedChainOrderIndependent replays the script with each block's
// transactions in seeded permutations, which reorders every writer's
// transactions within a block. No M-check needs them in order: the state
// digest stays pinned, and every height carries the verdicts it carries in
// the pinned stream. Only the order of events within one block follows the
// order of its transactions, which the block producer chooses; 7 of the 8
// permutations swap block 5's match of req-b and its alert on req-c.
func TestScriptedChainOrderIndependent(t *testing.T) {
	ref := newScriptChain(t)
	ref.run()
	want := byHeight(ref.stream.String())
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			s := newScriptChain(t)
			s.perm = idgen.NewRand(seed)
			s.run()
			if got := byHeight(s.stream.String()); got != want {
				t.Errorf("verdicts per height moved:\n%s\nwant:\n%s", got, want)
			}
			if got := s.chain.StateDigest().String(); got != pinnedScriptDigest {
				t.Errorf("state digest %s, pinned %s", got, pinnedScriptDigest)
			}
		})
	}
}

// byHeight sorts a verdict stream's lines by height, the last field of every
// line, and within one height by text.
func byHeight(stream string) string {
	lines := strings.Split(strings.TrimSpace(stream), "\n")
	height := func(line string) int {
		h, _ := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		return h
	}
	sort.Slice(lines, func(i, j int) bool {
		hi, hj := height(lines[i]), height(lines[j])
		return hi < hj || (hi == hj && lines[i] < lines[j])
	})
	return strings.Join(lines, "\n")
}

// run drives the script: ten blocks covering a policy publish and staged
// flip, matched exchanges record by record and batched, and the M3 and M4
// alerts.
func (s *scriptChain) run() {
	t := s.t
	t.Helper()
	// Block 1: publish v1 (active at this block's boundary) and stage v2 for
	// height 6, so the policy contract's sched/ queue outlives several blocks.
	s.send("pap", PolicyContractName, MethodPolicyUpdate, updateArgs("v1", 0).Encode())
	s.send("pap", PolicyContractName, MethodPolicyUpdate, updateArgs("v2", 6).Encode())
	s.seal()

	// Blocks 2-4: one exchange record by record across blocks, then its
	// verdict, which matches it.
	a := cleanExchange("req-a")
	s.log("li-t1", a.pepRequest())
	s.log("li-infra", a.pdpRequest())
	s.seal()
	s.log("li-infra", a.pdpResponse())
	s.log("li-t1", a.pepResponse(a.decision))
	s.seal()
	s.send("analyser", ContractName, MethodVerdict, a.verdict(a.decision).Encode())
	s.seal()

	// Block 5: a whole exchange in one logbatch with its verdict beside it;
	// the first leg of an exchange whose other legs never arrive (M3); an
	// enforcement mismatch (M4), which leaves alerted/ keys; and the first
	// legs of eight single-record exchanges, a 12-transaction block (which
	// the OCC parallel apply path computed when the digest was pinned).
	b := cleanExchange("req-b")
	s.send("li-t1", ContractName, MethodLogBatch,
		mustBatch(t, b.pepRequest(), b.pdpRequest(), b.pdpResponse(), b.pepResponse(b.decision)).Encode())
	s.send("analyser", ContractName, MethodVerdict, b.verdict(b.decision).Encode())
	s.log("li-t1", cleanExchange("req-lost").pepRequest())
	c := cleanExchange("req-c")
	s.send("li-infra", ContractName, MethodLogBatch,
		mustBatch(t, c.pepRequest(), c.pdpRequest(), c.pdpResponse(), c.pepResponse(xacml.Deny)).Encode())
	for i := 0; i < 8; i++ {
		s.log("li-t1", cleanExchange(fmt.Sprintf("req-%c", 'p'+i)).pepRequest())
	}
	s.seal()

	// Blocks 6-10: empty. v2 activates at 6; the deadlines armed at block 5
	// pass at 8 and fire message-suppressed / verdict-missing alerts.
	for i := 0; i < 5; i++ {
		s.seal()
	}

	if _, h := s.chain.Head(); h != 10 {
		t.Fatalf("script ended at height %d, want 10", h)
	}
}
