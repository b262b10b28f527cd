package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"drams/internal/metrics"
)

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
		dep, err := NewStandardDeployment(m.off, 1<<20)
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
