package main

import (
	"errors"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"drams"
)

// TestReadyzHeldUntilLastGate: the ops listener is up before the member is
// assembled, and a member's own gates (chain, policy-watcher) pass before
// the daemon has added its catch-up gate. Until the member's handler is
// swapped in — which runDaemon does after adding that gate — /readyz must
// read 503 while /healthz answers; after the swap the member's real gates,
// the daemon's included, decide.
func TestReadyzHeldUntilLastGate(t *testing.T) {
	ops := new(opsHandler)
	srv := httptest.NewServer(ops)
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before the member exists: %d, want 503", code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before the member exists: %d, want 200", code)
	}

	// A lone edge member: no peer seen and no policy on its chain, so its
	// own two gates pass from the start.
	dep, err := drams.OpenMember(nil, "tenant-1",
		drams.WithTopology(memberTopology([]string{"tenant-1", infraTenant})),
		drams.WithDifficulty(4))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if ready, failures := dep.Health().Ready(); !ready {
		t.Fatalf("lone member's own gates fail: %v", failures)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with the member up but not swapped in: %d, want 503", code)
	}

	var synced atomic.Bool
	dep.Health().AddReady("sync", func() error {
		if synced.Load() {
			return nil
		}
		return errors.New("initial chain catch-up in progress")
	})
	member := dep.MetricsHandler()
	ops.member.Store(&member)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "catch-up in progress") {
		t.Fatalf("/readyz during catch-up: %d %q, want 503 naming the sync gate", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, `drams_node_chain_height{member="node@tenant-1"}`) {
		t.Fatalf("/metrics after the swap: %d, member series missing", code)
	}
	synced.Store(true)
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after catch-up: %d %q, want 200", code, body)
	}
}

// TestDaemonCannotHandWireAMember: the daemon assembles its member through
// drams.OpenMember only. Without these packages it cannot construct a
// Logging Interface, a collector, a readiness gate, a monitor
// clock, a simulated network, a contract registry or an identity, so a
// second assembly path cannot grow back here unnoticed.
func TestDaemonCannotHandWireAMember(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{
		"drams/internal/logger":   true,
		"drams/internal/metrics":  true,
		"drams/internal/obs":      true,
		"drams/internal/clock":    true,
		"drams/internal/netsim":   true,
		"drams/internal/contract": true,
		"drams/internal/crypto":   true,
	}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		if banned[path] {
			t.Errorf("main.go imports %s", path)
		}
	}
}
