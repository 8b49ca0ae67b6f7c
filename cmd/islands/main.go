// Command islands reaches every artifact of this reproduction of "OLTP on
// Hardware Islands" (Porobic et al., VLDB 2012) through four subcommands:
//
//	islands run    [-full] [-seed N] <experiment>... | all | -list
//	islands probe  [-seed N] [-experiments | -only fig2,fig9,...] [-full]
//	               [-seeds N] [-geometry S:C:LLC[:fabric],...] [-latscale 0.5,1,2]
//	               [-parallel N] [-progress] [-celltimes] [-store DIR] | -list
//	islands advise [-machine quad|octo | -geometry ...] [-latscale ...] ...
//	islands topo
//
// run regenerates the paper's tables and figures, probe prints the
// simulation's determinism fingerprint, advise answers the paper's
// Section 8 question of how large an island should be, and topo prints the
// hardware-island topology of the built-in machines. Every subcommand runs
// quick sweeps and windows unless given -full; the flags two subcommands
// share (-seed, -seeds, -full, -list, -geometry/-latscale) are declared
// once, below, and a subcommand refuses any flag it does not take. Usage
// errors exit 2 with nothing on stdout.
//
// DESIGN.md records how the simulation substitutes for the paper's
// hardware. Host-time measurement of the simulator itself lives in
// benchmark/ (go run ./benchmark).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"islands/internal/harness"
	"islands/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage: islands <command> [flags]

commands:
  run     regenerate the paper's tables and figures
  probe   print the determinism fingerprint of the simulation
  advise  recommend an island size for a workload on a machine
  topo    print the built-in machine models and their island partitions

"islands <command> -h" lists a command's flags.
`

// commands maps each subcommand to its body, which takes the arguments
// after the subcommand's name.
var commands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"run":    runExperiments,
	"probe":  probe,
	"advise": advise,
	"topo":   topo,
}

// run is main with its inputs and outputs as parameters: it returns the exit
// status (2 for a usage error, which leaves stdout empty).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "islands: unknown command %q\n%s", args[0], usage)
		return 2
	}
	return cmd(args[1:], stdout, stderr)
}

// newFlags is a subcommand's flag set, reporting its errors on stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("islands "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// usageError reports err as one "islands <name>: " line on stderr and
// returns the usage exit status.
func usageError(stderr io.Writer, name string, err error) int {
	fmt.Fprintf(stderr, "islands %s: %v\n", name, err)
	return 2
}

// The flags two or more subcommands share, each declared here once.

func seedFlag(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 42, "workload and placement seed")
}

func fullFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("full", false, "full sweeps and measurement windows instead of quick ones (slow)")
}

func listFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("list", false, "list the testbed machines and every registered experiment, and exit")
}

func seedsFlag(fs *flag.FlagSet, def int) *int {
	return fs.Int("seeds", def, "replicate every cell over N seeds and add mean ±σ columns")
}

// machineSweepFlags declares -geometry and -latscale and returns their one
// parser, which yields the machines to sweep (nil when -geometry is empty).
func machineSweepFlags(fs *flag.FlagSet) func() ([]harness.Geometry, error) {
	geometry := fs.String("geometry", "", "comma-separated machine geometries sockets:cores:LLC-MB[:fabric] (e.g. 16:4:12,8:10:30:ring)")
	latscale := fs.String("latscale", "", "comma-separated interconnect latency scales (e.g. 0.5,1,2) fanning every -geometry machine")
	return func() ([]harness.Geometry, error) { return harness.ParseMachineSweep(*geometry, *latscale) }
}

// experiments resolves experiment ids against the registry, in the order
// given; empty ids are skipped. An unknown id, or no id at all, is an
// error, so a typo in the last id costs none of the sweeps before it.
func experiments(ids []string) ([]harness.Experiment, error) {
	var exps []harness.Experiment
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		e, ok := harness.Get(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid ids: %s)", id, strings.Join(harness.IDs(), ", "))
		}
		exps = append(exps, e)
	}
	if len(exps) == 0 {
		return nil, errors.New("no experiment ids")
	}
	return exps, nil
}

// list prints the testbed machines, with the socket fabric and mean hop
// count that identify a fabric sweep, then every registered experiment.
func list(w io.Writer) {
	fmt.Fprintln(w, "machines:")
	for _, m := range []*topology.Machine{topology.QuadSocket(), topology.OctoSocket()} {
		fmt.Fprintf(w, "  %-12s %ds x %dc  interconnect=%-10s mean hops %.2f\n",
			m.Name, m.SocketCount, m.CoresPerSocket, m.Interconnect.Name, m.MeanHops())
	}
	fmt.Fprintln(w, "experiments:")
	for _, e := range harness.All() {
		fmt.Fprintf(w, "  %-8s %-12s %s\n", e.ID, e.Ref, e.Title)
	}
}

// runExperiments is "islands run": each named experiment's text tables,
// whose rows and series mirror the paper's charts. -cpuprofile and
// -memprofile write pprof profiles of the run, for digging into the
// simulator's own hot paths.
func runExperiments(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("run", stderr)
	listOnly := listFlag(fs)
	full := fullFlag(fs)
	seed := seedFlag(fs)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listOnly {
		list(stdout)
		return 0
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "usage: islands run [-full] [-seed N] <experiment>... | all | -list")
		return 2
	}
	exps := harness.All()
	if len(ids) != 1 || ids[0] != "all" {
		var err error
		if exps, err = experiments(ids); err != nil {
			return usageError(stderr, "run", err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			defer f.Close()
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "islands run: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err == nil {
				defer f.Close()
				runtime.GC() // up-to-date allocation stats
				err = pprof.WriteHeapProfile(f)
			}
			if err != nil {
				fmt.Fprintf(stderr, "islands run: %v\n", err)
			}
		}()
	}

	opt := harness.Options{Quick: !*full, Seed: *seed}
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintln(stdout, e.Run(opt).Format())
		fmt.Fprintf(stdout, "   (completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}
