package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"drams/internal/attack"
	"drams/internal/metrics"
	"drams/internal/xacml"
)

// E1Params parameterise the end-to-end run.
type E1Params struct {
	Requests int
	Workers  int
}

// DefaultE1Params runs 48 requests with 4 workers.
func DefaultE1Params() E1Params { return E1Params{Requests: 48, Workers: 4} }

// RunE1 exercises the full Figure-1 deployment: mixed permit/deny traffic
// across both edge tenants, every exchange matched on-chain, zero alerts.
func RunE1(p E1Params) (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "Figure 1 end-to-end: monitored access control on a 2-cloud federation",
		Header: []string{"metric", "value"},
	}
	dep, err := NewStandardDeployment(2, false, 0)
	if err != nil {
		return t, err
	}
	defer dep.Close()

	clients, err := edgeClients(dep)
	if err != nil {
		return t, err
	}
	enforceLat := metrics.NewHistogram()
	matchLat := metrics.NewHistogram()
	var permits, denies int64
	var mu sync.Mutex

	start := time.Now()
	var wg sync.WaitGroup
	sem := make(chan struct{}, p.Workers)
	errCh := make(chan error, p.Requests)
	for i := 0; i < p.Requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			req := StandardRequest(dep, i)
			client := clients[i%len(clients)]
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			t0 := time.Now()
			enf, err := client.Decide(ctx, req)
			if err != nil {
				errCh <- err
				return
			}
			enforceLat.ObserveDuration(time.Since(t0))
			if err := dep.WaitForMatched(ctx, req.ID); err != nil {
				errCh <- err
				return
			}
			matchLat.ObserveDuration(time.Since(t0))
			mu.Lock()
			if enf.Permitted() {
				permits++
			} else {
				denies++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return t, err
	}
	elapsed := time.Since(start)

	el := enforceLat.Snapshot()
	ml := matchLat.Snapshot()
	node := dep.InfraNode()
	mst := dep.Monitor.Stats()
	t.Rows = [][]string{
		{"requests", fmt.Sprintf("%d", p.Requests)},
		{"permits", count(permits)},
		{"denies", count(denies)},
		{"enforcement p50 (ms)", msF(el.P50)},
		{"enforcement p99 (ms)", msF(el.P99)},
		{"match (on-chain) p50 (ms)", msF(ml.P50)},
		{"match (on-chain) p99 (ms)", msF(ml.P99)},
		{"monitored throughput (req/s)", rate(p.Requests, elapsed)},
		{"chain height", fmt.Sprintf("%d", node.Chain().Height())},
		{"log records seen", count(mst.LogsSeen)},
		{"matched exchanges", count(mst.Matched)},
		{"alerts (expect 0)", count(mst.AlertsSeen)},
	}
	if mst.AlertsSeen != 0 {
		t.Notes = append(t.Notes, "WARNING: clean traffic raised alerts")
	}
	return t, nil
}

// E5Params parameterise the detection matrix.
type E5Params struct {
	Trials int
}

// DefaultE5Params runs 3 trials per attack.
func DefaultE5Params() E5Params { return E5Params{Trials: 3} }

// RunE5 executes the full threat catalogue and reports detection rate and
// latency per attack — the quantitative form of the paper's §I claims.
func RunE5(p E5Params) (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "attack detection matrix (threat model of paper §I)",
		Header: []string{"attack", "alert", "trials", "detected", "rate", "mean_latency_ms", "mean_latency_blocks"},
		Notes: []string{
			"latency: wall time / blocks from the malicious request to the alert landing on-chain",
			"control row: clean traffic must raise no alert (false-positive check)",
		},
	}
	dep, err := NewStandardDeployment(2, false, 20)
	if err != nil {
		return t, err
	}
	defer dep.Close()
	client, err := dep.Client("tenant-1")
	if err != nil {
		return t, err
	}

	escalate := func(req *xacml.Request) *xacml.Request {
		out := xacml.NewRequest(req.ID)
		out.Add(xacml.CatSubject, "role", xacml.String("doctor"))
		out.Add(xacml.CatAction, "op", xacml.String("read"))
		return out
	}

	for _, sc := range attack.Catalogue(escalate) {
		detected := 0
		latency := metrics.NewHistogram()
		blockLat := metrics.NewHistogram()
		for trial := 0; trial < p.Trials; trial++ {
			cleanup, err := sc.Install(dep, "tenant-1")
			if err != nil {
				return t, fmt.Errorf("E5 %s: %w", sc.ID, err)
			}
			req := dep.NewRequest().
				Add(xacml.CatSubject, "role", xacml.String("intern")).
				Add(xacml.CatAction, "op", xacml.String("read"))
			_, startHeight := dep.InfraNode().Chain().Head()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			t0 := time.Now()
			_, _ = client.Decide(ctx, req) // suppression scenarios error by design

			hit := false
			for _, want := range sc.Expected {
				if alert, err := dep.WaitForAlert(ctx, req.ID, want); err == nil {
					hit = true
					latency.ObserveDuration(time.Since(t0))
					blockLat.Observe(float64(alert.Height - startHeight))
					break
				}
			}
			cancel()
			cleanup()
			if hit {
				detected++
			}
		}
		alertNames := ""
		for i, a := range sc.Expected {
			if i > 0 {
				alertNames += "|"
			}
			alertNames += string(a)
		}
		t.Rows = append(t.Rows, []string{
			sc.ID + " " + sc.Name, alertNames, fmt.Sprintf("%d", p.Trials),
			fmt.Sprintf("%d", detected), pct(detected, p.Trials),
			msF(latency.Snapshot().Mean), fmt.Sprintf("%.1f", blockLat.Snapshot().Mean),
		})
	}

	// A8: outsider log forgery is rejected at the chain boundary.
	forge := attack.AttemptLogForgery(dep.InfraNode(), "e5-forged")
	forged := "no"
	if forge.Rejected {
		forged = "yes"
	}
	t.Rows = append(t.Rows, []string{"A8 log forgery (outsider)", "tx rejected", "1", "1", forged, "-", "-"})

	// Control: clean request, expect Matched and zero alerts.
	req := dep.NewRequest().
		Add(xacml.CatSubject, "role", xacml.String("doctor")).
		Add(xacml.CatAction, "op", xacml.String("read"))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := client.Decide(ctx, req); err != nil {
		return t, err
	}
	if err := dep.WaitForMatched(ctx, req.ID); err != nil {
		return t, fmt.Errorf("E5 control: %w", err)
	}
	falsePos := len(dep.Monitor.AlertsFor(req.ID))
	t.Rows = append(t.Rows, []string{"control (no attack)", "none expected", "1",
		fmt.Sprintf("%d false alerts", falsePos), "-", "-", "-"})
	return t, nil
}

// E6Params parameterise the overhead comparison.
type E6Params struct {
	Requests int
	Workers  int
}

// DefaultE6Params runs 60 requests with 6 workers per mode.
func DefaultE6Params() E6Params { return E6Params{Requests: 60, Workers: 6} }

// RunE6 measures the monitoring overhead on the access-control hot path:
// probes off vs. asynchronous logging, on the same fleet and policy.
func RunE6(p E6Params) (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "monitoring overhead on access-control latency/throughput",
		Header: []string{"mode", "requests", "p50_ms", "p99_ms", "throughput_req_s"},
		Notes: []string{
			"off: probes disabled (bare access control)",
			"async: agents log in the background, beside the access-control flow",
		},
	}
	modes := []struct {
		label string
		off   bool
	}{
		{"off", true},
		{"async", false},
	}
	for _, m := range modes {
		dep, err := NewStandardDeployment(2, m.off, 1<<20)
		if err != nil {
			return t, err
		}
		client, err := dep.Client("tenant-1")
		if err != nil {
			dep.Close()
			return t, err
		}
		lat := metrics.NewHistogram()
		start := time.Now()
		var wg sync.WaitGroup
		sem := make(chan struct{}, p.Workers)
		errCh := make(chan error, p.Requests)
		for i := 0; i < p.Requests; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				req := StandardRequest(dep, i)
				t0 := time.Now()
				if _, err := client.Decide(context.Background(), req); err != nil {
					errCh <- err
					return
				}
				lat.ObserveDuration(time.Since(t0))
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			dep.Close()
			return t, fmt.Errorf("E6 %s: %w", m.label, err)
		}
		elapsed := time.Since(start)
		s := lat.Snapshot()
		t.Rows = append(t.Rows, []string{m.label, fmt.Sprintf("%d", p.Requests),
			msF(s.P50), msF(s.P99), rate(p.Requests, elapsed)})
		dep.Close()
	}
	return t, nil
}
