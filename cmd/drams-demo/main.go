// drams-demo walks through the Figure-1 architecture end to end: it builds
// a two-cloud FaaS federation with DRAMS attached, serves clean traffic,
// then compromises components one by one and shows the monitor catching
// each attack.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"drams"
	"drams/internal/core"
	"drams/internal/federation"
	"drams/internal/xacml"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "demo failed:", err)
		os.Exit(1)
	}
}

func policy() *xacml.PolicySet {
	match := func(cat xacml.Category, id xacml.AttributeID, v string) xacml.Match {
		return xacml.Match{Op: xacml.CmpEq, Attr: xacml.Designator{Cat: cat, ID: id}, Lit: xacml.String(v)}
	}
	doctorRead := &xacml.Rule{ID: "doctor-read", Effect: xacml.EffectPermit,
		Target: xacml.Target{AnyOf: []xacml.AnyOf{{AllOf: []xacml.AllOf{{Matches: []xacml.Match{
			match(xacml.CatSubject, "role", "doctor"), match(xacml.CatAction, "op", "read"),
		}}}}}}}
	deny := &xacml.Rule{ID: "default-deny", Effect: xacml.EffectDeny}
	return &xacml.PolicySet{ID: "records", Version: "v1", Alg: xacml.DenyUnlessPermit,
		Items: []xacml.PolicyItem{{Policy: &xacml.Policy{ID: "p", Version: "1",
			Alg: xacml.FirstApplicable, Rules: []*xacml.Rule{doctorRead, deny}}}}}
}

func run() error {
	fmt.Println("DRAMS demo — Decentralised Runtime Access Monitoring System")
	fmt.Println("=============================================================")
	fmt.Println()
	fmt.Println("[1/5] deploying the Figure-1 federation:")
	fmt.Println("      2 clouds, 2 edge tenants + infrastructure tenant,")
	fmt.Println("      PDP + PEPs + agents + LIs + 2-node chain + analyser")
	dep, err := drams.Open(policy(),
		drams.WithDifficulty(8),
		drams.WithTimeoutBlocks(25),
		drams.WithEmptyBlockInterval(20*time.Millisecond),
		drams.WithSeed(2026),
	)
	if err != nil {
		return err
	}
	defer dep.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Stream every security alert the monitor raises, as it lands.
	alerts, stopAlerts, err := dep.Alerts(ctx, drams.AlertFilter{})
	if err != nil {
		return err
	}
	defer stopAlerts()
	go func() {
		for a := range alerts {
			fmt.Printf("      🔔 ALERT %s\n", a)
		}
	}()

	clients := map[string]*drams.Client{}
	for _, tenant := range []string{"tenant-1", "tenant-2"} {
		c, err := dep.Client(tenant)
		if err != nil {
			return err
		}
		clients[tenant] = c
	}

	fmt.Println()
	fmt.Println("[2/5] clean traffic: a doctor reads a record via tenant-1's PEP")
	req := clients["tenant-1"].NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	enf, err := clients["tenant-1"].Decide(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("      decision enforced: %s\n", enf.Decision)
	if err := dep.WaitForMatched(ctx, req.ID); err != nil {
		return err
	}
	fmt.Println("      all four probe logs matched on-chain; analyser verdict agrees ✓")

	fmt.Println()
	fmt.Println("[3/5] attack: compromised PEP grants an intern's denied request (A3)")
	_ = dep.TamperPEP("tenant-1", &drams.Tamper{
		Enforce: func(xacml.Decision) xacml.Decision { return xacml.Permit },
	})
	evil := clients["tenant-1"].NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("intern")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	enf, err = clients["tenant-1"].Decide(ctx, evil)
	if err != nil {
		return err
	}
	fmt.Printf("      PEP enforced: %s (the PDP said Deny)\n", enf.Decision)
	if _, err := dep.WaitForAlert(ctx, evil.ID, core.AlertEnforcementMismatch); err != nil {
		return err
	}
	fmt.Println("      detected: enforcement-mismatch alert on-chain ✓")
	_ = dep.TamperPEP("tenant-1", nil)

	fmt.Println()
	fmt.Println("[4/5] attack: request suppressed in transit (A6)")
	_ = dep.TamperPEP("tenant-2", &drams.Tamper{DropRequest: true})
	dropped := clients["tenant-2"].NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	if _, err := clients["tenant-2"].Decide(ctx, dropped); err != federation.ErrRequestDropped {
		fmt.Printf("      (request outcome: %v)\n", err)
	}
	if _, err := dep.WaitForAlert(ctx, dropped.ID, core.AlertMessageSuppressed); err != nil {
		return err
	}
	fmt.Println("      detected: message-suppressed alert after the timeout window ✓")
	_ = dep.TamperPEP("tenant-2", nil)

	fmt.Println()
	fmt.Println("[5/5] final monitor state:")
	st := dep.Monitor.Stats()
	fmt.Printf("      log records seen : %d\n", st.LogsSeen)
	fmt.Printf("      matched exchanges: %d\n", st.Matched)
	fmt.Printf("      alerts           : %d\n", st.AlertsSeen)
	for typ, n := range st.AlertsByType {
		fmt.Printf("        %-24s %d\n", typ, n)
	}
	fmt.Printf("      chain height     : %d\n", dep.InfraNode().Chain().Height())
	fmt.Println()
	fmt.Println("demo complete")
	return nil
}
