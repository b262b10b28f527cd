package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"drams/internal/metrics"
	"drams/internal/obs"
)

// TestReadyzHeldUntilLastGate: an obs.Health with no checks is ready, and
// runDaemon serves /readyz long before its real gates exist, so the first
// poll of a process that has not caught up used to read 200. The startup
// gate holds 503 from before the listener until the last gate is in; after
// that the real gates alone decide.
func TestReadyzHeldUntilLastGate(t *testing.T) {
	health := obs.NewHealth()
	started := startupGate(health)
	srv := httptest.NewServer(obs.Handler(obs.NewGatherer(metrics.NewRegistry()), health))
	defer srv.Close()
	status := func() int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before any component exists: %d, want 503", got)
	}
	pass := func() error { return nil }
	health.AddReady("chain", pass)
	health.AddReady("policy-watcher", pass)
	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with chain and watcher up but sync not registered: %d, want 503", got)
	}
	var synced atomic.Bool
	health.AddReady("sync", func() error {
		if synced.Load() {
			return nil
		}
		return errors.New("initial chain catch-up in progress")
	})
	started()
	if got := status(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during catch-up: %d, want 503", got)
	}
	synced.Store(true)
	if got := status(); got != http.StatusOK {
		t.Fatalf("/readyz after catch-up: %d, want 200", got)
	}
}
