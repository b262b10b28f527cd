package blockchain

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"drams/internal/contract"
	"drams/internal/crypto"
	"drams/internal/netsim"
)

// tickContract's block hook emits one Tick event per block, carrying the
// height, so every block has hook events to deliver.
type tickContract struct{}

func (tickContract) Name() string { return "tick" }

func (tickContract) Execute(contract.CallCtx, contract.StateDB, contract.Call) ([]contract.Event, error) {
	return nil, contract.ErrUnknownMethod
}

func (tickContract) OnBlock(height uint64, _ time.Time, _ contract.StateDB) []contract.Event {
	return []contract.Event{{Contract: "tick", Type: "Tick", Payload: []byte(fmt.Sprint(height)), Height: height}}
}

// followConfig is testChainConfig with the tick hook registered.
func followConfig(t *testing.T, ids ...*crypto.Identity) Config {
	cfg := testChainConfig(t, ids...)
	cfg.Registry.MustRegister(tickContract{})
	return cfg
}

// followNode is a lone node that does not mine: the test adds every block.
func followNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 7})
	node, err := NewNode(NodeConfig{Name: "n", Chain: cfg, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Stop()
		net.Close()
	})
	return node
}

// addChild mines and adds a child of parent carrying one kv put per key.
func addChild(t *testing.T, c *Chain, alice *crypto.Identity, parent crypto.Digest, keys ...string) crypto.Digest {
	t.Helper()
	pb, _ := c.BlockByHash(parent)
	var txs []Transaction
	for _, k := range keys {
		tx, err := NewTransaction(alice, pb.Header.Height, putCall(k, "v"))
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	b := mineChild(t, c, parent, txs...)
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	return b.Hash()
}

// wantEvents is what a follower must read for a best-chain block: the Put
// event of each transaction that succeeded, in transaction order, then the
// tick hook's.
func wantEvents(t *testing.T, c *Chain, hash crypto.Digest) []contract.Event {
	t.Helper()
	b, _ := c.BlockByHash(hash)
	var evs []contract.Event
	for _, tx := range b.Txs {
		id := tx.ID()
		rec, _, err := c.Receipt(id)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.OK {
			continue
		}
		var args kvArgs
		if err := json.Unmarshal(tx.Call.Args, &args); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, contract.Event{Contract: "kv", Type: "Put", Payload: []byte(args.Key), Height: b.Header.Height, TxID: id})
	}
	return append(evs, contract.Event{Contract: "tick", Type: "Tick", Payload: []byte(fmt.Sprint(b.Header.Height)), Height: b.Header.Height})
}

// Blocks added one at a time, many while the follower is still busy with
// earlier ones, reach it once each, in height order, with their receipts'
// events followed by their hook events.
func TestFollowDeliversEachBestChainBlockOnce(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	node := followNode(t, followConfig(t, alice))
	c := node.Chain()

	const n = 12
	got := make(chan BlockEvents, n) // one per block added
	stop, done := make(chan struct{}), make(chan struct{})
	from := c.Cursor()
	go func() {
		defer close(done)
		node.Follow(stop, from, func(blocks []BlockEvents) {
			for _, b := range blocks {
				select {
				case got <- b:
				case <-stop:
				}
			}
		})
	}()
	head := c.Genesis()
	for i := 1; i <= n; i++ {
		var keys []string
		for k := range i % 3 {
			keys = append(keys, fmt.Sprintf("k%d-%d", i, k))
		}
		head = addChild(t, c, alice, head, keys...)
	}
	var read []BlockEvents
	for len(read) < n {
		select {
		case b := <-got:
			read = append(read, b)
		case <-time.After(10 * time.Second):
			t.Fatalf("read %d of %d blocks", len(read), n)
		}
	}
	close(stop)
	<-done
	if len(got) != 0 {
		t.Fatalf("%d blocks read past the %d added", len(got), n)
	}
	best := c.BestChainHashes()[1:]
	for i, b := range read {
		if b.Height != uint64(i+1) || b.Hash != best[i] {
			t.Fatalf("read #%d is height %d %s, want %d %s", i, b.Height, b.Hash.Short(), i+1, best[i].Short())
		}
		if want := wantEvents(t, c, b.Hash); !reflect.DeepEqual(b.Events, want) {
			t.Fatalf("height %d: events %+v, want %+v", b.Height, b.Events, want)
		}
	}
	if st := node.Stats(); st.EventsDropped != 0 {
		t.Fatalf("EventsDropped = %d, want 0", st.EventsDropped)
	}
}

// A cursor on a branch that lost resumes at the fork point: the winning
// branch is read from there and nothing of the abandoned one is. When the
// abandoned blocks rejoin the best chain above the cursor they are read
// again, which is what makes delivery at least once.
func TestFollowCursorOnLosingBranchResumesAtForkPoint(t *testing.T) {
	alice := testIdentity(t, "alice", 1)
	c := NewChain(followConfig(t, alice))
	a1 := addChild(t, c, alice, c.Genesis(), "shared")
	a2 := addChild(t, c, alice, a1, "a2")
	a3 := addChild(t, c, alice, a2, "a3")
	onA := c.Cursor()
	if onA.Hash != a3 || onA.Height != 3 {
		t.Fatalf("cursor %+v, want height 3 at a3", onA)
	}

	b2 := addChild(t, c, alice, a1, "b2")
	b3 := addChild(t, c, alice, b2, "b3")
	b4 := addChild(t, c, alice, b3, "b4")
	blocks, next, missed := c.EventsAfter(onA)
	heights(t, blocks, 2, 3, 4)
	for i, want := range []crypto.Digest{b2, b3, b4} {
		if blocks[i].Hash != want {
			t.Fatalf("height %d read from %s, want the winning branch's %s", blocks[i].Height, blocks[i].Hash.Short(), want.Short())
		}
		if evs := wantEvents(t, c, want); !reflect.DeepEqual(blocks[i].Events, evs) {
			t.Fatalf("height %d: events %+v, want %+v", blocks[i].Height, blocks[i].Events, evs)
		}
	}
	if missed != 0 || next != (Cursor{Height: 4, Hash: b4}) {
		t.Fatalf("next %+v, missed %d; want height 4 at b4, 0", next, missed)
	}
	if again, same, _ := c.EventsAfter(next); len(again) != 0 || same != next {
		t.Fatalf("a cursor at the head read %d blocks, moved to %+v", len(again), same)
	}

	// Branch a overtakes again: a2 and a3 rejoin above the cursor at b4.
	a4 := addChild(t, c, alice, a3)
	a5 := addChild(t, c, alice, a4)
	blocks, next, _ = c.EventsAfter(next)
	heights(t, blocks, 2, 3, 4, 5)
	if blocks[0].Hash != a2 || blocks[1].Hash != a3 || next.Hash != a5 {
		t.Fatalf("after the second switch read %s, %s up to %s", blocks[0].Hash.Short(), blocks[1].Hash.Short(), next.Hash.Short())
	}
}

// heights fails unless blocks are the given heights, in order.
func heights(t *testing.T, blocks []BlockEvents, want ...uint64) {
	t.Helper()
	got := make([]uint64, len(blocks))
	for i, b := range blocks {
		got[i] = b.Height
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read heights %v, want %v", got, want)
	}
}

// A follower more than E+1 blocks behind gets the top E+1 blocks, whose
// events are kept, and the blocks below are counted in EventsDropped.
func TestFollowCountsBlocksBelowTheEventWindow(t *testing.T) {
	node := followNode(t, followConfig(t))
	c := node.Chain()
	from := c.Cursor()
	const behind = 5
	head := c.Genesis()
	for range TxLifetime + 1 + behind {
		head = addChild(t, c, nil, head)
	}
	var read []BlockEvents
	stop := make(chan struct{})
	node.Follow(stop, from, func(blocks []BlockEvents) {
		read = blocks
		close(stop)
	})
	if len(read) != TxLifetime+1 || read[0].Height != behind+1 || read[len(read)-1].Hash != head {
		t.Fatalf("read %d blocks; want the %d from height %d to the head", len(read), TxLifetime+1, behind+1)
	}
	for _, b := range read {
		if want := wantEvents(t, c, b.Hash); !reflect.DeepEqual(b.Events, want) {
			t.Fatalf("height %d: events %+v, want %+v", b.Height, b.Events, want)
		}
	}
	if st := node.Stats(); st.EventsDropped != behind {
		t.Fatalf("EventsDropped = %d, want %d", st.EventsDropped, behind)
	}
}
