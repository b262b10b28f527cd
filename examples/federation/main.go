// Federation: a realistic healthcare data-sharing scenario on a three-cloud
// FaaS federation — the workload class the paper's introduction motivates
// (partner organisations sharing data under each owner's policies).
//
// It demonstrates:
//
//   - a richer XACML policy: role/resource targets, an office-hours
//     condition, an audit obligation;
//
//   - traffic from three hospitals' tenants, all matched on-chain;
//
//   - a policy update, its on-chain anchoring, and a nurse ward's batch
//     decided under the new version.
//
//     go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"drams"
	"drams/internal/federation"
	"drams/internal/xacml"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "federation example:", err)
		os.Exit(1)
	}
}

func match(cat xacml.Category, id xacml.AttributeID, v string) xacml.Match {
	return xacml.Match{Op: xacml.CmpEq, Attr: xacml.Designator{Cat: cat, ID: id}, Lit: xacml.String(v)}
}

func target(ms ...xacml.Match) xacml.Target {
	return xacml.Target{AnyOf: []xacml.AnyOf{{AllOf: []xacml.AllOf{{Matches: ms}}}}}
}

// healthPolicy v1: doctors read/write patient records; lab technicians read
// lab results during office hours (8–18); every permit carries an audit
// obligation; everything else is denied.
func healthPolicy(version string) *xacml.PolicySet {
	officeHours := &xacml.AndExpr{Args: []xacml.Expr{
		&xacml.CmpExpr{Op: xacml.CmpGe,
			Attr: xacml.Designator{Cat: xacml.CatEnvironment, ID: "hour"}, Lit: xacml.Int(8)},
		&xacml.CmpExpr{Op: xacml.CmpLt,
			Attr: xacml.Designator{Cat: xacml.CatEnvironment, ID: "hour"}, Lit: xacml.Int(18)},
	}}
	rules := []*xacml.Rule{
		{
			ID: "doctor-records", Effect: xacml.EffectPermit,
			Target: target(
				match(xacml.CatSubject, "role", "doctor"),
				match(xacml.CatResource, "type", "patient-record"),
			),
			Obligs: []xacml.Obligation{{ID: "audit-access", FulfillOn: xacml.EffectPermit,
				Params: map[string]string{"sink": "hospital-audit-log"}}},
		},
		{
			ID: "lab-tech-results", Effect: xacml.EffectPermit,
			Target: target(
				match(xacml.CatSubject, "role", "lab-tech"),
				match(xacml.CatResource, "type", "lab-result"),
				match(xacml.CatAction, "op", "read"),
			),
			Condition: officeHours,
		},
		{ID: "default-deny", Effect: xacml.EffectDeny},
	}
	return &xacml.PolicySet{ID: "health-federation", Version: version, Alg: xacml.DenyUnlessPermit,
		Items: []xacml.PolicyItem{{Policy: &xacml.Policy{
			ID: "sharing-policy", Version: "1", Alg: xacml.FirstApplicable, Rules: rules}}}}
}

func run() error {
	topology := federation.SimpleTopology("health-federation", 3)
	dep, err := drams.Open(healthPolicy("v1"),
		drams.WithTopology(topology),
		drams.WithDifficulty(8),
		drams.WithTimeoutBlocks(30),
		drams.WithEmptyBlockInterval(20*time.Millisecond),
		drams.WithSeed(99),
	)
	if err != nil {
		return err
	}
	defer dep.Close()

	fmt.Println("three-hospital federation deployed:")
	for _, c := range topology.Clouds {
		fmt.Printf("  %s (%s): tenants %v\n", c.Name, c.Section, names(topology.TenantsOnCloud(c.Name)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	type caseReq struct {
		who, tenant string
		build       func(*xacml.Request)
		want        xacml.Decision
	}
	cases := []caseReq{
		{"doctor reads a record (hospital 1)", "tenant-1", func(r *xacml.Request) {
			r.Add(xacml.CatSubject, "role", xacml.String("doctor"))
			r.Add(xacml.CatResource, "type", xacml.String("patient-record"))
			r.Add(xacml.CatAction, "op", xacml.String("read"))
		}, xacml.Permit},
		{"lab tech reads results at 10:00 (hospital 2)", "tenant-2", func(r *xacml.Request) {
			r.Add(xacml.CatSubject, "role", xacml.String("lab-tech"))
			r.Add(xacml.CatResource, "type", xacml.String("lab-result"))
			r.Add(xacml.CatAction, "op", xacml.String("read"))
			r.Add(xacml.CatEnvironment, "hour", xacml.Int(10))
		}, xacml.Permit},
		{"lab tech reads results at 23:00 (hospital 2)", "tenant-2", func(r *xacml.Request) {
			r.Add(xacml.CatSubject, "role", xacml.String("lab-tech"))
			r.Add(xacml.CatResource, "type", xacml.String("lab-result"))
			r.Add(xacml.CatAction, "op", xacml.String("read"))
			r.Add(xacml.CatEnvironment, "hour", xacml.Int(23))
		}, xacml.Deny},
		{"admin tries a record (hospital 3)", "tenant-3", func(r *xacml.Request) {
			r.Add(xacml.CatSubject, "role", xacml.String("admin"))
			r.Add(xacml.CatResource, "type", xacml.String("patient-record"))
		}, xacml.Deny},
	}

	fmt.Println("\ntraffic:")
	for _, c := range cases {
		client, err := dep.Client(c.tenant)
		if err != nil {
			return err
		}
		req := client.NewRequest()
		c.build(req)
		enf, err := client.Decide(ctx, req)
		if err != nil {
			return err
		}
		status := "✓"
		if enf.Decision != c.want {
			status = fmt.Sprintf("✗ (want %s)", c.want)
		}
		obls := ""
		if len(enf.Obligations) > 0 {
			obls = fmt.Sprintf("  [obligation: %s]", enf.Obligations[0].ID)
		}
		fmt.Printf("  %-46s → %-6s %s%s\n", c.who, enf.Decision, status, obls)
		if err := dep.WaitForMatched(ctx, req.ID); err != nil {
			return fmt.Errorf("%s: %w", c.who, err)
		}
	}
	fmt.Println("  every exchange matched on-chain; zero alerts")

	// Policy update: v2 lets nurses read patient records.
	v2 := healthPolicy("v2")
	nurseRule := &xacml.Rule{
		ID: "nurse-records", Effect: xacml.EffectPermit,
		Target: target(
			match(xacml.CatSubject, "role", "nurse"),
			match(xacml.CatResource, "type", "patient-record"),
			match(xacml.CatAction, "op", "read"),
		),
	}
	pol := v2.Items[0].Policy
	pol.Rules = append([]*xacml.Rule{nurseRule}, pol.Rules...)

	if err := dep.PublishPolicy(v2); err != nil {
		return err
	}
	fmt.Println("\nv2 published: stored and digest anchored on-chain, PDP reloaded")

	// Under v2 a ward of nurses reads records: a single pipelined batch
	// through hospital 3's PEP (one network round-trip for all of them).
	ward, err := dep.Client("tenant-3")
	if err != nil {
		return err
	}
	batch := make([]*xacml.Request, 4)
	for i := range batch {
		batch[i] = ward.NewRequest().
			Add(xacml.CatSubject, "role", xacml.String("nurse")).
			Add(xacml.CatResource, "type", xacml.String("patient-record")).
			Add(xacml.CatAction, "op", xacml.String("read"))
	}
	enfs, err := ward.DecideBatch(ctx, batch)
	if err != nil {
		return err
	}
	fmt.Printf("nurse ward batch under v2 → %d requests, all %s\n", len(enfs), enfs[0].Decision)
	for _, req := range batch {
		if err := dep.WaitForMatched(ctx, req.ID); err != nil {
			return err
		}
	}

	st := dep.Monitor.Stats()
	fmt.Printf("\nmonitor: %d logs, %d matched, %d alerts, chain height %d\n",
		st.LogsSeen, st.Matched, st.AlertsSeen, dep.InfraNode().Chain().Height())
	return nil
}

func names(ts []federation.Tenant) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}
