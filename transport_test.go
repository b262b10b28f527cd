package drams_test

import (
	"context"
	"testing"
	"time"

	"drams"
	"drams/internal/transport/tcp"
	"drams/internal/xacml"
)

// TestDeploymentOverTCPTransport runs a full monitored deployment on the
// real TCP backend instead of netsim: the decision round-trip, the log
// mining and the on-chain match all flow through transport.Endpoint, so any
// semantic gap between the backends would surface here.
func TestDeploymentOverTCPTransport(t *testing.T) {
	tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	dep, err := drams.Open(testPolicy("v1"),
		drams.WithTransport(tr),
		drams.WithDifficulty(6),
		drams.WithTimeoutBlocks(20),
		drams.WithEmptyBlockInterval(15*time.Millisecond),
		drams.WithSeed(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if dep.Net != nil {
		t.Fatal("TCP-backed deployment must not expose a netsim handle")
	}

	client, err := dep.Client("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req := doctorRequest(dep)
	enf, err := client.Decide(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if enf.Decision != xacml.Permit {
		t.Fatalf("decision = %v, want Permit", enf.Decision)
	}
	if err := dep.WaitForMatched(ctx, req.ID); err != nil {
		t.Fatalf("exchange did not match on-chain over TCP: %v", err)
	}
}

// TestDeploymentOnSuppliedTransport proves caller-owned transports are not
// closed by Deployment.Close.
func TestDeploymentOnSuppliedTransport(t *testing.T) {
	tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	dep, err := drams.Open(testPolicy("v1"),
		drams.WithTransport(tr),
		drams.WithMonitoring(false),
		drams.WithDifficulty(4),
		drams.WithEmptyBlockInterval(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	dep.Close()
	// The supplied transport must still be usable after Close — including
	// the deployment's own addresses, which Close must have released.
	if _, err := tr.Register("still-alive"); err != nil {
		t.Fatalf("caller-owned transport was closed by the deployment: %v", err)
	}
	dep2, err := drams.Open(testPolicy("v1"),
		drams.WithTransport(tr),
		drams.WithMonitoring(false),
		drams.WithDifficulty(4),
		drams.WithEmptyBlockInterval(10*time.Millisecond),
	)
	if err != nil {
		t.Fatalf("re-open on the same transport after Close: %v", err)
	}
	dep2.Close()
}
