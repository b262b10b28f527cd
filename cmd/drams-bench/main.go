// drams-bench regenerates the full experiment suite: the E1–E3 and E5–E7
// reproductions of the paper's evaluation, the AB1–AB2 ablations, and the
// V6 and V7 tables (fast resync, adversarial detection); README "Tests and
// benchmarks" and ARCHITECTURE §3 list them. Speed comparisons between code paths live in
// benchmark/, not here. It prints each result table (text or CSV).
//
// Usage:
//
//	drams-bench [-run E1,E2,...,AB1,...,V6,V7] [-quick] [-csv] [-json [-out DIR]]
//	            [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"drams/internal/benchfmt"
	"drams/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type runner struct {
	id string
	fn func() (experiment.Table, error)
}

// selectRunners returns the runners that runList names ("all" or
// comma-separated ids, case-insensitive), in catalogue order. An id with no
// runner is an error, so a typo cannot pass as an empty, successful run.
func selectRunners(runners []runner, runList string) ([]runner, error) {
	if runList == "all" {
		return runners, nil
	}
	known := make([]string, len(runners))
	for i, r := range runners {
		known[i] = r.id
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(runList, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("unknown experiment id %q; known: %s", id, strings.Join(known, ","))
		}
		selected[id] = true
	}
	var out []runner
	for _, r := range runners {
		if selected[r.id] {
			out = append(out, r)
		}
	}
	return out, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("drams-bench", flag.ExitOnError)
	runList := fs.String("run", "all", "comma-separated experiment ids (E1..E3, E5..E7, AB1..AB2, V6, V7) or 'all'")
	quick := fs.Bool("quick", false, "reduced parameters (fast smoke run)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "also write one BENCH_<id>.json per experiment (drams-bench/1 schema)")
	outDir := fs.String("out", ".", "output directory for -json reports")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	_ = fs.Parse(args) // ExitOnError: does not return on a bad flag

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	selected, err := selectRunners(catalogue(*quick), *runList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drams-bench: %v\n", err)
		return 2
	}
	failures := 0
	for _, r := range selected {
		fmt.Fprintf(os.Stderr, "running %s...\n", r.id)
		start := time.Now()
		tab, err := r.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", r.id, err)
			failures++
			continue
		}
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", tab.ID, tab.Title, tab.CSV())
		} else {
			fmt.Println(tab.Render())
		}
		if *jsonOut {
			rep := benchfmt.New(tab.ID, "experiment")
			rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
			rep.Config = map[string]any{"quick": *quick}
			rep.Table = &benchfmt.TableData{
				Title: tab.Title, Header: tab.Header, Rows: tab.Rows, Notes: tab.Notes,
			}
			path, err := rep.WriteFile(*outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s report: %v\n", r.id, err)
				failures++
				continue
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		fmt.Fprintf(os.Stderr, "%s done in %s\n", r.id, time.Since(start).Round(time.Millisecond))
	}
	return failures
}

// catalogue lists every experiment drams-bench can run, in output order;
// quick selects the reduced parameters.
func catalogue(quick bool) []runner {
	return []runner{
		{"E1", func() (experiment.Table, error) {
			p := experiment.DefaultE1Params()
			if quick {
				p = experiment.E1Params{Requests: 8, Workers: 2}
			}
			return experiment.RunE1(p)
		}},
		{"E2", func() (experiment.Table, error) {
			p := experiment.DefaultE2Params()
			if quick {
				p = experiment.E2Params{Sizes: []int{64, 4096}, Difficulties: []uint8{8}, Samples: 3}
			}
			return experiment.RunE2(p)
		}},
		{"E3", func() (experiment.Table, error) {
			p := experiment.DefaultE3Params()
			if quick {
				p = experiment.E3Params{Difficulties: []uint8{4, 8, 12}, Blocks: 3}
			}
			return experiment.RunE3(p)
		}},
		{"E5", func() (experiment.Table, error) {
			p := experiment.DefaultE5Params()
			if quick {
				p = experiment.E5Params{Trials: 1}
			}
			return experiment.RunE5(p)
		}},
		{"E6", func() (experiment.Table, error) {
			p := experiment.DefaultE6Params()
			if quick {
				p = experiment.E6Params{Requests: 16, Workers: 4}
			}
			return experiment.RunE6(p)
		}},
		{"E7", func() (experiment.Table, error) {
			p := experiment.DefaultE7Params()
			if quick {
				p = experiment.E7Params{RuleCounts: []int{10, 100}, Requests: 100}
			}
			return experiment.RunE7(p)
		}},
		{"AB1", func() (experiment.Table, error) {
			p := experiment.DefaultAB1Params()
			if quick {
				p = experiment.AB1Params{TimeoutBlocks: []uint64{5, 20}, Trials: 1}
			}
			return experiment.RunAB1(p)
		}},
		{"AB2", func() (experiment.Table, error) {
			p := experiment.DefaultAB2Params()
			if quick {
				p = experiment.AB2Params{Trials: 1}
			}
			return experiment.RunAB2(p)
		}},
		{"V6", func() (experiment.Table, error) {
			p := experiment.DefaultV6Params()
			if quick {
				p = experiment.V6Params{ChainLengths: []int{64, 256}, SyncBatch: 64,
					NetLatency: 300 * time.Microsecond}
			}
			return experiment.RunV6(p)
		}},
		{"V7", func() (experiment.Table, error) {
			p := experiment.DefaultV7Params()
			if quick {
				p = experiment.V7Params{Trials: 1, Seed: 7}
			}
			return experiment.RunV7(p)
		}},
	}
}
