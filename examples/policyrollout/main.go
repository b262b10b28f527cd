// Policy rollout: runtime policy administration over the chain.
//
// The PAP publishes a restricting policy update as an on-chain transaction
// (full serialized set + digest + activation height); every federation
// member's watcher verifies it against the anchored root and hot-reloads
// its PDP at the activation height — no restarts, and the rollout
// observable through Deployment.OnPolicyEvent. The example then rolls the
// fleet back to v1.
//
//	go run ./examples/policyrollout
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"drams"
	"drams/internal/xacml"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "policyrollout:", err)
		os.Exit(1)
	}
}

func run() error {
	// v1: the standard role-gated regime (doctors and nurses may read).
	dep, err := drams.Open(xacml.StandardPolicy("v1"), drams.WithSeed(11))
	if err != nil {
		return err
	}
	defer dep.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Operators watch rollouts through the deployment's policy hook. It runs
	// on the watcher goroutine, so it only hands each event over, into a
	// buffer sized to the two rollouts below.
	rollouts := make(chan drams.PolicyEvent, 2)
	dep.OnPolicyEvent(func(ev drams.PolicyEvent) {
		select {
		case rollouts <- ev:
		default:
		}
	})

	client, err := dep.Client("tenant-1")
	if err != nil {
		return err
	}
	doctorRead := func() *xacml.Request {
		return client.NewRequest().
			Add(xacml.CatSubject, "role", xacml.String("doctor")).
			Add(xacml.CatAction, "op", xacml.String("read")).
			Add(xacml.CatResource, "type", xacml.String("record"))
	}

	enf, err := client.Decide(ctx, doctorRead())
	if err != nil {
		return err
	}
	fmt.Printf("under %s: doctor reads a record → %v\n", enf.PolicyVersion, enf.Decision)

	// A security incident: revoke all read access, fleet-wide, two blocks
	// from now. Any member may administer — here tenant-1's own admin
	// handle signs with the federation PAP identity.
	admin, err := dep.Admin("tenant-1")
	if err != nil {
		return err
	}
	fmt.Println("\npublishing v2 (reads revoked) with a 2-block activation gate...")
	if err := admin.UpdatePolicy(ctx, xacml.RestrictedPolicy("v2"), drams.UpdateOptions{ActivateDelta: 2}); err != nil {
		return err
	}
	ev := <-rollouts
	fmt.Printf("rollout event: %s %s at height %d (digest %s)\n", ev.Kind, ev.Version, ev.Height, ev.Digest.Short())

	enf, err = client.Decide(ctx, doctorRead())
	if err != nil {
		return err
	}
	fmt.Printf("under %s: doctor reads a record → %v\n", enf.PolicyVersion, enf.Decision)

	st := dep.PolicyStats()
	fmt.Printf("\npolicy stats: version=%s activations=%d\n", st.Version, st.Activations)

	// Incident over: roll the fleet back to v1 (the bytes are already
	// anchored on-chain; only an activation travels).
	fmt.Println("\nrolling back to v1...")
	if err := admin.Rollback(ctx, "v1", drams.UpdateOptions{}); err != nil {
		return err
	}
	ev = <-rollouts
	fmt.Printf("rollout event: %s %s at height %d (digest %s)\n", ev.Kind, ev.Version, ev.Height, ev.Digest.Short())

	enf, err = client.Decide(ctx, doctorRead())
	if err != nil {
		return err
	}
	fmt.Printf("under %s: doctor reads a record → %v\n", enf.PolicyVersion, enf.Decision)

	fmt.Println("\non-chain activation history:")
	for i, act := range admin.History() {
		fmt.Printf("  %d. %s at height %d (digest %s)\n", i+1, act.Version, act.Height, act.Digest.Short())
	}
	return nil
}
