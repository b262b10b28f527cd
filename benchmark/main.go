// Command benchmark is the repository's one repeatable performance
// instrument: four fixed-work workloads against an in-process drams.Open
// fleet, end-to-end metrics from an untraced run, per-layer metrics from a
// separate traced run plus a replay of each layer on inputs captured from
// it. See README.md in this directory.
//
//	go run ./benchmark --workload steady --seed 1 --seconds 20 --trace 0
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed: arrivals, tenants, request attributes, tamper set")
		seconds  = flag.Float64("seconds", nominalSeconds, "nominal length of the measured phase; scales the fixed amount of work")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run plus layer replay, per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare old.json new.json")
		collect  = flag.String("collect", "", "fold the run reports of a directory into one result set on standard output; several comma-separated directories are pooled and kept as A/A sets (a baseline)")
		report   = flag.String("report", "", "directory to also write the full run report to")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare old.json new.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), os.Stdout))
	case *collect != "":
		if err := runCollect(*collect, os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	s, ok := specByName(*workload)
	if !ok {
		fatal("unknown workload %q; have %s", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	out, err := runOnce(s, *seed, *seconds, *trace != 0)
	if err != nil {
		fatal("%s: %v", s.Name, err)
	}
	fmt.Fprintf(os.Stderr, "host.calib_ms before=%.3f after=%.3f drift_pct=%.2f\n",
		out.CalibMs[0], out.CalibMs[1], 100*(out.CalibMs[1]-out.CalibMs[0])/out.CalibMs[0])
	for _, why := range out.Failures {
		fmt.Fprintln(os.Stderr, "failed:", why)
	}
	if *report != "" {
		if err := writeReport(*report, out, *seconds, *trace != 0); err != nil {
			fatal("%v", err)
		}
	}
	result, err := newResultLine(out, *trace != 0)
	if err != nil {
		fatal("%v", err)
	}
	line, err := json.Marshal(result)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return names
}
