package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"islands/internal/core"
	"islands/internal/harness"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// probe is "islands probe": a determinism fingerprint of the simulation —
// the kernel event count and throughput of reference deployment runs, plus
// (with -experiments, -only, -full or -seeds) every table value of the
// experiments at a fixed seed.
//
// Two builds simulate identically if and only if their probe outputs are
// byte-identical; CI and performance work diff the output before and after
// a change. Experiment cells are independent simulations assembled by table
// coordinate, so the fingerprint is also independent of -parallel, the one
// knob that spends host cores.
//
// -seeds N replicates every cell of the selected experiments over N seeds
// (Study.Seeds), doubling each table's columns with ±σ. -geometry runs an
// ad-hoc machine-geometry sweep (sockets:coresPerSocket:LLC-MB per machine,
// with an optional fabric: full, ring, mesh, torus or hypercube); -latscale
// fans every geometry across interconnect latency scales.
//
// -store DIR memoizes experiment cells in a persistent content-addressed
// result store: a warm rerun serves every cell from the archive — zero
// simulations, byte-identical stdout. -celltimes lines gain a
// "cache=hit|miss" field, and a "store: hits=N misses=M" summary lands on
// stderr at exit. Every key is salted with the build's golden fingerprint,
// so a store never serves results the current code would not produce.
func probe(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("probe", stderr)
	seed := seedFlag(fs)
	experimentsFlag := fs.Bool("experiments", false, "also fingerprint every experiment (slow)")
	only := fs.String("only", "", "comma-separated experiment ids to fingerprint (implies -experiments)")
	listOnly := listFlag(fs)
	full := fullFlag(fs)
	seeds := seedsFlag(fs, 1)
	machineSweep := machineSweepFlags(fs)
	parallel := fs.Int("parallel", 0, "concurrently-run experiment cells (0 = GOMAXPROCS, 1 = sequential)")
	progress := fs.Bool("progress", false, "report per-cell experiment progress on stderr")
	celltimes := fs.Bool("celltimes", false, "report per-cell wall-clock on stderr (the accounting behind cell cost hints)")
	storeDir := fs.String("store", "", "result-store directory (created if missing): memoize experiment cells across runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listOnly {
		list(stdout)
		return 0
	}
	if *seeds < 1 {
		return usageError(stderr, "probe", fmt.Errorf("-seeds must be >= 1"))
	}
	// Validate every flag before any simulation runs: a malformed one must
	// not leave partial fingerprint output on stdout.
	geos, err := machineSweep()
	if err != nil {
		return usageError(stderr, "probe", err)
	}
	var selected []harness.Experiment
	if *only != "" {
		if selected, err = experiments(strings.Split(*only, ",")); err != nil {
			return usageError(stderr, "probe", err)
		}
	}

	opt := harness.Options{Quick: !*full, Seed: *seed, Parallel: *parallel}
	if *progress {
		opt.Progress = func(exp, cell string, done, total int) {
			fmt.Fprintf(stderr, "%s: %d/%d cells (%s)\n", exp, done, total, cell)
		}
	}
	// The executor calls a cell's CellCache and then its CellTime under one
	// mutex, so plain variables carry the hit from one to the other.
	var hits, misses int
	var cacheField string
	if *storeDir != "" {
		store, err := harness.OpenStore(*storeDir)
		if err != nil {
			return usageError(stderr, "probe", err)
		}
		defer store.Close()
		defer func() { fmt.Fprintf(stderr, "store: hits=%d misses=%d\n", hits, misses) }()
		opt.Store = store
		opt.CellCache = func(_, _ string, hit bool) {
			if hit {
				hits, cacheField = hits+1, " cache=hit"
			} else {
				misses, cacheField = misses+1, " cache=miss"
			}
		}
	}
	if *celltimes {
		opt.CellTime = func(_, cell string, elapsed time.Duration) {
			fmt.Fprintf(stderr, "celltime %s %.3fs%s\n", cell, elapsed.Seconds(), cacheField)
		}
	}

	// Each study runs seed-replicated when -seeds > 1 and prints its
	// fingerprint lines.
	probeDeployments(stdout, *seed)
	if geos != nil {
		geometryStudy(geos).Seeds(*seeds).Run(opt).Fingerprint(stdout)
	}
	// Asking for seed replication without naming any study means "all
	// experiments": -seeds alone must never be silently ignored. When
	// -geometry already consumed it, though, don't drag every registered
	// experiment into what the user scoped to a machine sweep.
	if *experimentsFlag || *full || selected != nil || (*seeds > 1 && geos == nil) {
		// In registry order, whatever the order of -only.
		for _, e := range harness.All() {
			if selected == nil || slices.ContainsFunc(selected, func(s harness.Experiment) bool { return s.ID == e.ID }) {
				e.Study(opt).Seeds(*seeds).Run(opt).Fingerprint(stdout)
			}
		}
	}
	return 0
}

// probeDeployments runs reference deployments spanning the interesting
// configuration corners (shared-everything, islands, fine-grained; reads and
// writes; local and multisite) and prints the raw kernel/measurement numbers.
func probeDeployments(w io.Writer, seed int64) {
	machine := topology.QuadSocket()
	cases := []struct {
		name      string
		instances int
		mc        workload.MicroConfig
		localOnly bool
	}{
		{"1ISL-update-local", 1, workload.MicroConfig{RowsPerTxn: 10, Write: true}, false},
		{"4ISL-read-multisite", 4, workload.MicroConfig{RowsPerTxn: 10, PctMultisite: 0.2}, false},
		{"24ISL-read-local", 24, workload.MicroConfig{RowsPerTxn: 10}, true},
	}
	for _, c := range cases {
		cfg := core.DefaultConfig(machine, c.instances, 240000)
		cfg.Seed = seed
		cfg.LocalOnly = c.localOnly
		mc := c.mc
		mc.Table = 1
		mc.GlobalRows = 240000
		mc.Seed = seed + 1
		d := core.NewDeployment(cfg)
		d.Start(workload.NewMicro(mc, d.Part))
		m := d.Run(500*sim.Microsecond, 3*sim.Millisecond)
		fmt.Fprintf(w, "deployment %-22s events=%d committed=%d tps=%.6f\n",
			c.name, d.Kernel.Events(), m.Committed, m.ThroughputTPS)
		d.Close()
	}
}

// geometryStudy builds the ad-hoc machine sweep for -geometry out of the
// study builders: the paper's read-10 microbenchmark at 20% multisite,
// fine-grained / per-socket islands / shared-everything per hypothetical
// machine.
func geometryStudy(geos []harness.Geometry) *harness.Study {
	configs := []string{"FG", "CG", "SE"}
	rows := make([]string, len(geos))
	for i, g := range geos {
		rows[i] = g.Label()
	}
	st := &harness.Study{
		ID:    "geometry",
		Title: "ad-hoc machine-geometry sweep (read-10, 20% multisite)",
		Ref:   "study API",
		Notes: []string{"FG = one instance per core, CG = one per socket, SE = shared-everything"},
		Tables: []*harness.Table{
			harness.NewTable("geometry sweep", "KTps", "machine", rows, "config", configs),
		},
	}
	machines := harness.Machines(geos...)
	st.Cells = harness.Grid(func(idx []int) harness.Cell {
		g := geos[idx[0]]
		instances := 1
		switch configs[idx[1]] {
		case "FG":
			instances = g.Sockets * g.CoresPerSocket
		case "CG":
			instances = g.Sockets
		}
		return harness.MicroCell(
			fmt.Sprintf("geometry/%s/%s", g.Label(), configs[idx[1]]),
			harness.MicroSpec{
				Machine:   machines[idx[0]],
				Instances: instances,
				Rows:      240000,
				MC:        workload.MicroConfig{RowsPerTxn: 10, PctMultisite: 0.2},
			},
			harness.TPSEmit(0, idx[0], idx[1]))
	}, len(geos), len(configs))
	return st
}
