package contract

import (
	"encoding/json"
	"fmt"
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
