package contract

import (
	"encoding/json"
	"fmt"

	"drams/internal/crypto"
)

// KVContract is a minimal general-purpose on-chain key-value store. DRAMS
// uses it for data that only needs immutable, ordered publication (e.g.
// federation membership records). Each key is owned by the caller that first
// wrote it; other callers cannot overwrite it.
type KVContract struct {
	ContractName string
}

var _ Contract = (*KVContract)(nil)

// KVArgs are the arguments for KVContract methods.
type KVArgs struct {
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

// Name implements Contract.
func (k *KVContract) Name() string { return k.ContractName }

// Execute implements Contract. Methods: "put", "del".
func (k *KVContract) Execute(ctx CallCtx, st StateDB, call Call) ([]Event, error) {
	var args KVArgs
	if err := json.Unmarshal(call.Args, &args); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	if args.Key == "" {
		return nil, fmt.Errorf("%w: empty key", ErrBadArgs)
	}
	ownerKey := "owner/" + args.Key
	dataKey := "data/" + args.Key
	if owner, ok := st.Get(ownerKey); ok && string(owner) != ctx.Caller {
		return nil, fmt.Errorf("contract: key %q owned by %q, caller is %q", args.Key, owner, ctx.Caller)
	}
	switch call.Method {
	case "put":
		st.Set(ownerKey, []byte(ctx.Caller))
		st.Set(dataKey, args.Value)
		payload, _ := json.Marshal(map[string]string{"key": args.Key, "by": ctx.Caller})
		return []Event{{Type: "Put", Payload: payload}}, nil
	case "del":
		st.Delete(ownerKey)
		st.Delete(dataKey)
		payload, _ := json.Marshal(map[string]string{"key": args.Key, "by": ctx.Caller})
		return []Event{{Type: "Del", Payload: payload}}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownMethod, call.Method)
	}
}

// ReadKV reads a KVContract value out of the contract's space.
//
//lint:ignore deadcode KVContract's reader: the contract, blockchain and root packages' tests read kv writes through it
func ReadKV(st StateDB, key string) ([]byte, bool) {
	return st.Get("data/" + key)
}

// AnchorContract records Merkle roots of off-chain data batches. It is the
// on-chain half of the hybrid database+blockchain design (paper §III,
// reference [9]) and also anchors policy digests published by the PAP so the
// monitor can detect policy substitution (check M6).
//
// Anchors are append-only per stream: sequence numbers must be fresh. A
// second anchor for an existing (stream, seq) with a different root is
// rejected and flagged with an AnchorConflict event — a visible sign of
// equivocation.
type AnchorContract struct {
	ContractName string
}

var _ Contract = (*AnchorContract)(nil)

// AnchorArgs are the arguments for AnchorContract.anchor.
type AnchorArgs struct {
	Stream string        `json:"stream"`
	Seq    uint64        `json:"seq"`
	Root   crypto.Digest `json:"root"`
	Count  int           `json:"count"`
	Note   string        `json:"note,omitempty"`
}

// AnchorRecord is what gets stored per (stream, seq).
type AnchorRecord struct {
	Root   crypto.Digest `json:"root"`
	Count  int           `json:"count"`
	Height uint64        `json:"height"`
	By     string        `json:"by"`
	Note   string        `json:"note,omitempty"`
}

// Name implements Contract.
func (a *AnchorContract) Name() string { return a.ContractName }

// Execute implements Contract. Methods: "anchor".
func (a *AnchorContract) Execute(ctx CallCtx, st StateDB, call Call) ([]Event, error) {
	if call.Method != "anchor" {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMethod, call.Method)
	}
	var args AnchorArgs
	if err := json.Unmarshal(call.Args, &args); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	if args.Stream == "" {
		return nil, fmt.Errorf("%w: empty stream", ErrBadArgs)
	}
	key := anchorKey(args.Stream, args.Seq)
	if existing, ok := st.Get(key); ok {
		var prev AnchorRecord
		if err := json.Unmarshal(existing, &prev); err == nil && prev.Root == args.Root {
			// Idempotent re-anchor (e.g. client retry): accept silently.
			return nil, nil
		}
		payload, _ := json.Marshal(map[string]any{
			"stream": args.Stream, "seq": args.Seq, "by": ctx.Caller,
		})
		return []Event{{Type: "AnchorConflict", Payload: payload}},
			fmt.Errorf("contract: anchor %s/%d already exists with different root", args.Stream, args.Seq)
	}
	rec := AnchorRecord{Root: args.Root, Count: args.Count, Height: ctx.Height, By: ctx.Caller, Note: args.Note}
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("contract: encode anchor record: %w", err)
	}
	st.Set(key, b)
	// Track the latest sequence per stream for O(1) reads.
	st.Set("head/"+args.Stream, []byte(fmt.Sprintf("%d", args.Seq)))
	payload, _ := json.Marshal(args)
	return []Event{{Type: "Anchored", Payload: payload}}, nil
}

func anchorKey(stream string, seq uint64) string {
	return fmt.Sprintf("anchor/%s/%016x", stream, seq)
}

// ReadAnchor reads an anchor record from the contract's space.
func ReadAnchor(st StateDB, stream string, seq uint64) (AnchorRecord, bool) {
	b, ok := st.Get(anchorKey(stream, seq))
	if !ok {
		return AnchorRecord{}, false
	}
	var rec AnchorRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return AnchorRecord{}, false
	}
	return rec, true
}

// ListAnchors returns every anchored sequence for a stream in order.
func ListAnchors(st StateDB, stream string) []AnchorRecord {
	var out []AnchorRecord
	for k := range st.Keys("anchor/" + stream + "/") {
		b, _ := st.Get(k)
		var rec AnchorRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			continue
		}
		out = append(out, rec)
	}
	return out
}
