package netsim

import (
	"testing"

	"drams/internal/transport"
	"drams/internal/transport/transporttest"
)

// TestTransportConformance runs the shared transport conformance suite
// against the simulator (no injected faults): netsim and the TCP backend
// must be interchangeable behind transport.Transport.
func TestTransportConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) []transport.Transport {
		net := New(Config{Seed: 7})
		t.Cleanup(func() { net.Close() })
		out := make([]transport.Transport, n)
		for i := range out {
			out[i] = net
		}
		return out
	})
}
