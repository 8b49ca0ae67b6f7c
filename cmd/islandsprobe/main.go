// Command islandsprobe emits a determinism fingerprint of the simulation:
// the kernel event count and throughput of a reference deployment run, plus
// every table value of the quick-mode experiments at a fixed seed.
//
// Two builds of the repo simulate identically if and only if their probe
// outputs are byte-identical; CI and performance work diff the output before
// and after a change to prove the optimization did not alter simulated
// behavior. Because experiment cells are independent simulations assembled
// by table coordinate, the fingerprint is also independent of -parallel: CI
// diffs a sequential against a parallel run to prove it. -parallel is the
// one knob that spends host cores; each cell's simulation runs on its own
// goroutine, every island on its own event partition.
//
// Usage:
//
//	islandsprobe -list
//	islandsprobe [-seed N] [-experiments | -only fig2,fig9,...] [-full]
//	             [-seeds N] [-geometry S:C:LLC[:fabric],...] [-latscale 0.5,1,2]
//	             [-parallel N] [-progress] [-celltimes] [-store DIR]
//
// -seeds N replicates every cell of the selected experiments over N seeds
// through the study API's Seeds wrapper, doubling each table's columns
// with ±σ (stddev over the replicas). -geometry runs an ad-hoc
// machine-geometry sweep (sockets:coresPerSocket:LLC-MB per machine, with
// an optional fourth field naming the socket fabric: full, ring, mesh,
// torus or hypercube) built entirely on the public study builders;
// -latscale additionally fans every geometry across interconnect latency
// scales (0.5 = a wire twice as fast).
//
// -store DIR memoizes experiment cells in a persistent content-addressed
// result store: a warm rerun of the same probe serves every cell from the
// archive — zero simulations, byte-identical stdout (CI runs the probe
// twice through one store and diffs). -celltimes lines gain a
// "cache=hit|miss" field, and a "store: hits=N misses=M" summary lands on
// stderr at exit. Stores self-invalidate when simulated behavior changes
// (every key is salted with the build's golden fingerprint), so serving
// stale results across code changes is impossible.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"islands"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters: it returns the exit
// status (2 for a usage error, which leaves stdout empty).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("islandsprobe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "workload and placement seed")
	experiments := fs.Bool("experiments", false, "also fingerprint every quick-mode experiment (slow)")
	only := fs.String("only", "", "comma-separated experiment ids to fingerprint (implies -experiments)")
	list := fs.Bool("list", false, "print id, ref and title of every registered experiment and exit")
	full := fs.Bool("full", false, "fingerprint the full-mode sweeps instead of quick mode (very slow; implies -experiments)")
	seeds := fs.Int("seeds", 1, "replicate every study cell over N seeds and add mean ±σ columns (implies -experiments unless -geometry is given)")
	geometry := fs.String("geometry", "", "comma-separated machine geometries sockets:cores:LLC-MB[:fabric] (e.g. 16:4:12,8:10:30:ring) to sweep ad hoc")
	latscale := fs.String("latscale", "", "comma-separated interconnect latency scales (e.g. 0.5,1,2) fanning every -geometry machine")
	parallel := fs.Int("parallel", 0, "concurrently-run experiment cells (0 = GOMAXPROCS, 1 = sequential)")
	progress := fs.Bool("progress", false, "report per-cell experiment progress on stderr")
	celltimes := fs.Bool("celltimes", false, "report per-cell wall-clock on stderr (the accounting behind cell cost hints)")
	storeDir := fs.String("store", "", "result-store directory (created if missing): memoize experiment cells across runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		// The testbed machines first, with their socket fabric and mean hop
		// count: fabric sweeps (the fabric experiment, -geometry S:C:LLC:ring)
		// are identifiable from the listing by exactly these two numbers.
		fmt.Fprintln(stdout, "machines:")
		for _, m := range []*islands.Machine{islands.QuadSocket(), islands.OctoSocket()} {
			fmt.Fprintf(stdout, "  %-12s %ds x %dc  interconnect=%-10s mean hops %.2f\n",
				m.Name, m.SocketCount, m.CoresPerSocket, m.Interconnect.Name, m.MeanHops())
		}
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range islands.Experiments() {
			fmt.Fprintf(stdout, "  %-8s %-12s %s\n", e.ID, e.Ref, e.Title)
		}
		return 0
	}
	if *seeds < 1 {
		fmt.Fprintln(stderr, "islandsprobe: -seeds must be >= 1")
		return 2
	}
	// Validate -geometry and -only before any simulation runs: a malformed
	// flag must not leave partial fingerprint output on stdout.
	geos, err := islands.ParseMachineSweep(*geometry, *latscale)
	if err != nil {
		fmt.Fprintf(stderr, "islandsprobe: %v\n", err)
		return 2
	}
	var selected map[string]bool
	if *only != "" {
		if selected, err = parseOnly(*only); err != nil {
			fmt.Fprintf(stderr, "islandsprobe: %v\n", err)
			return 2
		}
	}

	opt := islands.ExperimentOptions{Quick: !*full, Seed: *seed, Parallel: *parallel}
	if *progress {
		opt.Progress = func(exp, cell string, done, total int) {
			fmt.Fprintf(stderr, "%s: %d/%d cells (%s)\n", exp, done, total, cell)
		}
	}
	// hits/misses and lastHit are written by the CellCache callback and read
	// by the CellTime callback right after it; the executor serializes both
	// under one mutex, so plain variables are safe.
	var hits, misses int
	var lastHit bool
	if *storeDir != "" {
		store, err := islands.OpenResultStore(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "islandsprobe: %v\n", err)
			return 2
		}
		defer store.Close()
		opt.Store = store
		opt.CellCache = func(exp, cell string, hit bool) {
			if hit {
				hits++
			} else {
				misses++
			}
			lastHit = hit
		}
	}
	if *celltimes {
		opt.CellTime = func(exp, cell string, elapsed time.Duration) {
			line := fmt.Sprintf("celltime %s %.3fs", cell, elapsed.Seconds())
			if opt.Store != nil {
				if lastHit {
					line += " cache=hit"
				} else {
					line += " cache=miss"
				}
			}
			fmt.Fprintln(stderr, line)
		}
	}
	if opt.Store != nil {
		defer func() {
			fmt.Fprintf(stderr, "store: hits=%d misses=%d\n", hits, misses)
		}()
	}

	probeDeployments(stdout, *seed)
	if geos != nil {
		runStudy(stdout, geometryStudy(geos), *seeds, opt)
	}
	// Asking for seed replication without naming any study means "all
	// experiments": -seeds alone must never be silently ignored. When
	// -geometry already consumed it, though, don't drag every registered
	// experiment into what the user scoped to a machine sweep.
	if *experiments || *full || selected != nil || (*seeds > 1 && geos == nil) {
		probeExperiments(stdout, selected, *seeds, opt)
	}
	return 0
}

// probeDeployments runs reference deployments spanning the interesting
// configuration corners (shared-everything, islands, fine-grained; reads and
// writes; local and multisite) and prints the raw kernel/measurement numbers.
func probeDeployments(w io.Writer, seed int64) {
	machine := islands.QuadSocket()
	cases := []struct {
		name      string
		instances int
		mc        islands.MicroConfig
		localOnly bool
	}{
		{"1ISL-update-local", 1, islands.MicroConfig{RowsPerTxn: 10, Write: true}, false},
		{"4ISL-read-multisite", 4, islands.MicroConfig{RowsPerTxn: 10, PctMultisite: 0.2}, false},
		{"24ISL-read-local", 24, islands.MicroConfig{RowsPerTxn: 10}, true},
	}
	for _, c := range cases {
		cfg := islands.DefaultConfig(machine, c.instances, 240000)
		cfg.Seed = seed
		cfg.LocalOnly = c.localOnly
		mc := c.mc
		mc.Table = 1
		mc.GlobalRows = 240000
		mc.Seed = seed + 1
		d := islands.NewDeployment(cfg)
		d.Start(islands.NewMicroWorkload(mc, d))
		m := d.Run(500*islands.Microsecond, 3*islands.Millisecond)
		fmt.Fprintf(w, "deployment %-22s events=%d committed=%d tps=%.6f\n",
			c.name, d.Kernel.Events(), m.Committed, m.ThroughputTPS)
		d.Close()
	}
}

// parseOnly validates a comma-separated -only list against the registry;
// it returns a non-empty id set or an error.
func parseOnly(s string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, id := range islands.ExperimentIDs() {
		known[id] = true
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(s, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (valid ids: %s)",
				id, strings.Join(islands.ExperimentIDs(), ", "))
		}
		selected[id] = true
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiment ids in %q", s)
	}
	return selected, nil
}

// probeExperiments prints every cell of every selected experiment table at
// full float precision (every registered experiment when selected is nil).
// Progress and cell times (when requested) go to stderr so the fingerprint
// on stdout stays byte-comparable.
func probeExperiments(w io.Writer, selected map[string]bool, seeds int, opt islands.ExperimentOptions) {
	for _, e := range islands.Experiments() {
		if selected != nil && !selected[e.ID] {
			continue
		}
		runStudy(w, e.Study(opt), seeds, opt)
	}
}

// runStudy executes a study (seed-replicated when seeds > 1) and prints its
// fingerprint lines on w.
func runStudy(w io.Writer, st *islands.Study, seeds int, opt islands.ExperimentOptions) {
	if seeds > 1 {
		st = st.Seeds(seeds)
	}
	st.Run(opt).Fingerprint(w)
}

// geometryStudy builds the ad-hoc machine sweep for -geometry out of the
// public study builders: the paper's read-10 microbenchmark at 20%
// multisite, fine-grained / per-socket islands / shared-everything per
// hypothetical machine.
func geometryStudy(geos []islands.Geometry) *islands.Study {
	configs := []string{"FG", "CG", "SE"}
	rows := make([]string, len(geos))
	for i, g := range geos {
		rows[i] = g.Label()
	}
	st := &islands.Study{
		ID:    "geometry",
		Title: "ad-hoc machine-geometry sweep (read-10, 20% multisite)",
		Ref:   "study API",
		Notes: []string{"FG = one instance per core, CG = one per socket, SE = shared-everything"},
		Tables: []*islands.Table{
			islands.NewTable("geometry sweep", "KTps", "machine", rows, "config", configs),
		},
	}
	machines := islands.Machines(geos...)
	st.Cells = islands.Grid(func(idx []int) islands.Cell {
		g := geos[idx[0]]
		instances := 1
		switch configs[idx[1]] {
		case "FG":
			instances = g.Sockets * g.CoresPerSocket
		case "CG":
			instances = g.Sockets
		}
		return islands.MicroCell(
			fmt.Sprintf("geometry/%s/%s", g.Label(), configs[idx[1]]),
			islands.MicroCellSpec{
				Machine:   machines[idx[0]],
				Instances: instances,
				Rows:      240000,
				MC:        islands.MicroConfig{RowsPerTxn: 10, PctMultisite: 0.2},
			},
			islands.TPSEmit(0, idx[0], idx[1]))
	}, len(geos), len(configs))
	return st
}
