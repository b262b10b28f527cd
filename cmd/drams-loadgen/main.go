// drams-loadgen runs declarative load scenarios against a DRAMS
// federation — the in-process netsim deployment or a live drams-node TCP
// federation — with open-loop (arrival-rate) or closed-loop (looping-VU)
// executors, weighted request mixes, mid-run policy flips and member
// churn, HDR latency capture, and SLO thresholds that set the exit code.
//
// Usage:
//
//	drams-loadgen -scenario ci-slo                        # builtin, netsim
//	drams-loadgen -scenario ./my.json -target netsim
//	drams-loadgen -scenario tcp-ramp -target tcp \
//	    -peers 127.0.0.1:19701,127.0.0.1:19702,127.0.0.1:19703 \
//	    -federation tenant-1,tenant-2,tenant-3 -seed 7
//	drams-loadgen -list
//
// Exit codes: 0 = run complete, all thresholds passed; 1 = run error;
// 2 = run complete but at least one threshold failed. Every run writes
// BENCH_loadgen_<scenario>.json (see internal/benchfmt) into -out.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"drams/internal/loadgen"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the testable entry point: parses args, executes, maps the result
// to the documented exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("drams-loadgen", flag.ContinueOnError)
	var (
		scenario = fs.String("scenario", "smoke", "builtin scenario name or path to a scenario JSON file")
		list     = fs.Bool("list", false, "list builtin scenarios and exit")
		target   = fs.String("target", "netsim", "system under load: netsim (in-process) or tcp (live drams-node federation)")
		outDir   = fs.String("out", ".", "directory for the BENCH_loadgen_<scenario>.json report ('' = skip)")

		// Scenario overrides (zero value = keep the scenario's setting).
		rate       = fs.Float64("rate", 0, "override arrival rate (iterations/s)")
		duration   = fs.Duration("duration", 0, "override run duration (constant/looping executors)")
		vus        = fs.Int("vus", 0, "override closed-loop VU count")
		maxWorkers = fs.Int("max-workers", 0, "override open-loop worker pool bound")
		seed       = fs.Uint64("seed", 0, "override scenario seed")
		thresholds = fs.String("thresholds", "", "override thresholds (comma-separated, e.g. 'p99<5ms,error_rate<0.1%')")

		// Netsim target knobs.
		clouds     = fs.Int("clouds", 3, "netsim: federation size")
		difficulty = fs.Uint("difficulty", 8, "netsim/tcp: PoW difficulty bits")
		monitoring = fs.Bool("monitoring", true, "netsim: enable probes/analyser/monitor plane")
		netLatency = fs.Duration("net-latency", 200*time.Microsecond, "netsim: simulated one-way latency")
		netJitter  = fs.Duration("net-jitter", 0, "netsim: simulated latency jitter")

		// TCP target knobs (must match the daemons' flags).
		peers         = fs.String("peers", "", "tcp: comma-separated daemon addresses (host:port)")
		metricsPeers  = fs.String("metrics-peers", "", "tcp: comma-separated daemon -metrics-addr endpoints to scrape into the report")
		federationArg = fs.String("federation", "", "tcp: comma-separated edge tenant names")
		timeoutBlocks = fs.Uint64("timeout-blocks", 64, "tcp: M3 timeout window in blocks")
		dialTimeout   = fs.Duration("dial-timeout", 15*time.Second, "tcp: wait for the remote PDP to become routable")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		fmt.Println("builtin scenarios:")
		for _, name := range loadgen.BuiltinScenarioNames() {
			s, _ := loadgen.BuiltinScenario(name)
			fmt.Printf("  %-16s %s, thresholds: %s\n", name, s.Executor.Type, strings.Join(s.Thresholds, " "))
		}
		return 0
	}

	scn, err := resolveScenario(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *rate > 0 {
		scn.Executor.Rate = *rate
	}
	if *duration > 0 {
		scn.Executor.Duration = loadgen.Duration(*duration)
	}
	if *vus > 0 {
		scn.Executor.VUs = *vus
	}
	if *maxWorkers > 0 {
		scn.Executor.MaxWorkers = *maxWorkers
	}
	if *seed != 0 {
		scn.Seed = *seed
	}
	if *thresholds != "" {
		scn.Thresholds = splitList(*thresholds)
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	}

	var tgt loadgen.Target
	switch *target {
	case "netsim":
		tgt, err = loadgen.NewNetsimTarget(loadgen.NetsimConfig{
			Clouds:        *clouds,
			Seed:          scn.Seed,
			Difficulty:    uint8(*difficulty),
			Monitoring:    *monitoring,
			NetLatency:    *netLatency,
			NetJitter:     *netJitter,
			TimeoutBlocks: *timeoutBlocks,
		})
	case "tcp":
		if *peers == "" || *federationArg == "" {
			fmt.Fprintln(os.Stderr, "drams-loadgen: -target tcp needs -peers and -federation")
			return 1
		}
		tgt, err = loadgen.NewTCPTarget(loadgen.TCPConfig{
			Peers:         splitList(*peers),
			Edges:         splitList(*federationArg),
			Seed:          scn.Seed,
			Difficulty:    uint8(*difficulty),
			TimeoutBlocks: *timeoutBlocks,
			DialTimeout:   *dialTimeout,
			MetricsAddrs:  splitList(*metricsPeers),
		})
	default:
		fmt.Fprintf(os.Stderr, "drams-loadgen: unknown target %q (want netsim or tcp)\n", *target)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drams-loadgen: open %s target: %v\n", *target, err)
		return 1
	}
	defer tgt.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf("scenario %s on %s: %s", scn.Name, *target, describe(scn))
	res, err := loadgen.Run(ctx, scn, tgt, logf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drams-loadgen: %v\n", err)
		return 1
	}
	printResult(res)
	if *outDir != "" {
		rep := res.Report(*target)
		if sc, ok := tgt.(loadgen.MetricsScraper); ok {
			// Scrape on a fresh context: the run context may already be
			// cancelled by the signal that ended the run.
			scrapeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			rep.FleetMetrics = sc.ScrapeMetrics(scrapeCtx)
			cancel()
		}
		path, err := rep.WriteFile(*outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drams-loadgen: %v\n", err)
			return 1
		}
		logf("report: %s", path)
	}
	if !res.Pass {
		return 2
	}
	return 0
}

// resolveScenario loads a builtin by name or a JSON file by path.
func resolveScenario(arg string) (loadgen.Scenario, error) {
	if strings.ContainsAny(arg, "/\\") || strings.HasSuffix(arg, ".json") {
		return loadgen.LoadScenario(arg)
	}
	return loadgen.BuiltinScenario(arg)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func describe(s loadgen.Scenario) string {
	e := s.Executor
	switch e.Type {
	case loadgen.ExecRampingArrivalRate:
		return fmt.Sprintf("%s from %.0f/s over %d stages", e.Type, e.Rate, len(e.Stages))
	case loadgen.ExecLoopingVU:
		return fmt.Sprintf("%s with %d VUs for %s", e.Type, e.VUs, e.Duration.D())
	default:
		return fmt.Sprintf("%s at %.0f/s for %s", e.Type, e.Rate, e.Duration.D())
	}
}

func printResult(res *loadgen.Result) {
	fmt.Printf("scenario: %s\n", res.Scenario.Name)
	fmt.Printf("elapsed:  %s\n", res.Elapsed.D().Round(time.Millisecond))
	fmt.Printf("iterations: %d  completed: %d  errors: %d  dropped_iterations: %d\n",
		res.Iterations, res.Requests, res.Errors, res.Dropped)
	fmt.Printf("latency ms: p50=%.2f p90=%.2f p99=%.2f p99.9=%.2f max=%.2f\n",
		res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.P999, res.Latency.Max)
	if res.AlertLatency.Count > 0 {
		fmt.Printf("alert detection ms: n=%d p50=%.0f p99=%.0f\n",
			res.AlertLatency.Count, res.AlertLatency.P50, res.AlertLatency.P99)
	}
	for _, ev := range res.Events {
		status := "ok"
		if ev.Err != "" {
			status = "FAILED: " + ev.Err
		}
		fmt.Printf("event: %-11s %-12s t=%-8s %s\n", ev.Kind, ev.Detail, ev.Offset.D().Round(time.Millisecond), status)
	}
	if len(res.Verdicts) > 0 {
		fmt.Printf("thresholds:\n%s", loadgen.FormatVerdicts(res.Verdicts))
	}
	if res.Pass {
		fmt.Println("result: PASS")
	} else {
		fmt.Println("result: FAIL")
	}
}
