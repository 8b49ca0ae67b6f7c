// Command islandsbench regenerates the tables and figures of "OLTP on
// Hardware Islands" (Porobic et al., VLDB 2012).
//
// Usage:
//
//	islandsbench -list
//	islandsbench [-quick] [-seed N] fig9 fig13 ...
//	islandsbench [-quick] all
//
// Each experiment prints text tables whose rows and series mirror the
// paper's charts; DESIGN.md records how the simulation substitutes for the
// paper's hardware.
//
// -cpuprofile and -memprofile write pprof profiles of whatever work the
// invocation runs, for digging into the simulator's own hot paths. Host-time
// measurement of the simulator itself lives in benchmark/ (go run ./benchmark).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"islands/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters: it returns the exit
// status (2 for a usage error, which leaves stdout empty).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("islandsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available experiments")
	quick := fs.Bool("quick", false, "reduced sweeps and windows")
	seed := fs.Int64("seed", 42, "workload and placement seed")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "  %-8s %-12s %s\n", e.ID, e.Ref, e.Title)
		}
		return 0
	}

	// Resolve every id before running any: a typo in the last one must not
	// cost the sweeps before it, nor leave partial tables on stdout.
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "usage: islandsbench [-quick] [-seed N] <experiment>... | all | -list")
		return 2
	}
	var exps []harness.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		exps = harness.All()
	} else {
		for _, id := range ids {
			e, ok := harness.Get(id)
			if !ok {
				fmt.Fprintf(stderr, "islandsbench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			exps = append(exps, e)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "islandsbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "islandsbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "islandsbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "islandsbench: %v\n", err)
			}
		}()
	}

	opt := harness.Options{Quick: *quick, Seed: *seed}
	for _, e := range exps {
		start := time.Now()
		res := e.Run(opt)
		fmt.Fprintln(stdout, res.Format())
		fmt.Fprintf(stdout, "   (completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}
