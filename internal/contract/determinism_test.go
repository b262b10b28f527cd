package contract

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"drams/internal/crypto"
	"drams/internal/idgen"
)

// TestReplicaDeterminism is the replication safety property of the whole
// on-chain layer: two engines fed the same call sequence (as every
// federation node is, via the blockchain) end in byte-identical state and
// emit identical events — regardless of wall-clock, scheduling or host.
func TestReplicaDeterminism(t *testing.T) {
	build := func() (*Engine, *State) {
		r := NewRegistry()
		r.MustRegister(&KVContract{ContractName: "kv"})
		return NewEngine(r), NewState()
	}
	e1, s1 := build()
	e2, s2 := build()

	rng := idgen.NewRand(1234)
	callers := []string{"li-1", "li-2", "pap"}
	var calls []struct {
		ctx  CallCtx
		call Call
	}
	for i := 0; i < 300; i++ {
		var call Call
		if rng.Intn(2) == 0 {
			args, _ := json.Marshal(KVArgs{
				Key:   fmt.Sprintf("k%d", rng.Intn(40)),
				Value: rng.Bytes(8),
			})
			method := "put"
			if rng.Intn(10) == 0 {
				method = "del"
			}
			call = Call{Contract: "kv", Method: method, Args: args}
		} else {
			// Malformed args: the call fails and rolls back on both replicas.
			malformed := []string{`{"key":`, `{"key":""}`, `[]`}
			call = Call{Contract: "kv", Method: "put", Args: json.RawMessage(malformed[rng.Intn(len(malformed))])}
		}
		calls = append(calls, struct {
			ctx  CallCtx
			call Call
		}{
			ctx: CallCtx{
				Height:    uint64(i / 5),
				BlockTime: time.Unix(int64(i), 0),
				TxID:      crypto.Sum([]byte{byte(i), byte(i >> 8)}),
				Caller:    callers[rng.Intn(len(callers))],
			},
			call: call,
		})
	}

	var failed int
	digest := func(e *Engine, s *State) (crypto.Digest, string) {
		var eventLog string
		for _, c := range calls {
			events, err := e.Execute(c.ctx, s, c.call)
			if err != nil {
				failed++
				eventLog += "ERR:" + c.call.Method + ";"
				continue
			}
			for _, ev := range events {
				eventLog += ev.Type + ":" + string(ev.Payload) + ";"
			}
		}
		return s.Digest(), eventLog
	}

	d1, log1 := digest(e1, s1)
	d2, log2 := digest(e2, s2)
	if d1 != d2 {
		t.Fatal("replicas diverged in state")
	}
	if log1 != log2 {
		t.Fatal("replicas diverged in events")
	}
	if failed == 0 || failed == 2*len(calls) {
		t.Fatalf("%d of %d calls failed: the sequence must mix applied and rolled-back calls", failed/2, len(calls))
	}
}
