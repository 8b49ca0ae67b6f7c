// Command islandsadvisor recommends an island size (number of database
// instances) for a workload on a machine — the paper's stated future work:
// "determining the ideal size of each island automatically for the given
// hardware and workload".
//
// It answers the question two ways. The synthetic mode (default) calibrates
// the paper's throughput model on a generated microbenchmark. The trace
// mode answers it for *your* workload: record a trace from a running
// deployment, then replay it across island size × geometry candidates and
// rank the outcomes.
//
// Usage:
//
//	# synthetic advisor (the historical mode)
//	islandsadvisor [-machine quad|octo | -geometry S:C:LLC[:fabric]]
//	               -rows 240000 -rowstxn 10 -write -multisite 0.2 -skew 0.5
//
//	# record a trace from a quick TPC-C (or micro) run
//	islandsadvisor -record tpcc.trace [-workload tpcc|micro] [-instances N]
//	               [-warehouses 24] [-geometry S:C:LLC[:fabric]] [-full]
//
//	# trace-driven advisor: replay the trace across candidates
//	islandsadvisor -trace tpcc.trace [-geometry 4:6:8:ring,8:10:30]
//	               [-latscale 0.5,1,2] [-sizes 1,4,24] [-seeds 3] [-full]
//
//	# inspect a trace file
//	islandsadvisor -dump tpcc.trace [-maxrecords 5]
//
// -geometry uses the same S:C:LLC-MB[:fabric] spec language as
// islandsprobe and works in every mode (replacing the old quad/octo-only
// -machine flag, which remains as a shorthand).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"islands"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters: it returns the exit
// status (2 for a usage error, which leaves stdout empty). Every flag is
// validated before the first simulation runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("islandsadvisor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "quad", "machine model shorthand: quad or octo")
	geometry := fs.String("geometry", "", "machine geometries sockets:cores:LLC-MB[:fabric], comma-separated (overrides -machine; multiple only in -trace mode)")
	latscale := fs.String("latscale", "", "interconnect latency scales (e.g. 0.5,1,2) fanning every -trace geometry")

	record := fs.String("record", "", "record a trace from a measured run into FILE and exit")
	workloadKind := fs.String("workload", "tpcc", "-record workload: tpcc or micro")
	instances := fs.Int("instances", 0, "-record island count (0 = one per socket)")
	warehouses := fs.Int("warehouses", 24, "-record TPC-C warehouse count")

	traceFile := fs.String("trace", "", "replay trace FILE across candidates and rank them")
	sizes := fs.String("sizes", "", "-trace island sizes to try, comma-separated (default: every size dividing the machine)")
	seeds := fs.Int("seeds", 3, "-trace seed replicas for ±σ (replicas rotate the stream deal)")

	dump := fs.String("dump", "", "print a text rendering of trace FILE and exit")
	maxRecords := fs.Int("maxrecords", 3, "-dump records shown per stream (0 = all)")

	rows := fs.Int64("rows", 240000, "synthetic: global rows in the dataset")
	rowsTxn := fs.Int("rowstxn", 10, "synthetic/micro: rows accessed per transaction")
	write := fs.Bool("write", false, "synthetic/micro: update workload (default read-only)")
	multisite := fs.Float64("multisite", 0.2, "synthetic/micro: fraction of multisite transactions (0..1)")
	skew := fs.Float64("skew", 0, "synthetic/micro: Zipfian skew factor (0 = uniform)")
	seed := fs.Int64("seed", 42, "workload and placement seed")
	verify := fs.Bool("verify", true, "synthetic: verify the ranking with full mixed-workload runs")
	full := fs.Bool("full", false, "use the full (non-quick) measurement window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "islandsadvisor: %v\n", err)
		return 2
	}

	switch {
	case *rows < 1:
		return fail(errors.New("-rows must be >= 1"))
	case *rowsTxn < 1:
		return fail(errors.New("-rowstxn must be >= 1"))
	case !(*multisite >= 0 && *multisite <= 1):
		return fail(errors.New("-multisite must be within 0..1"))
	case !(*skew >= 0):
		return fail(errors.New("-skew must be >= 0"))
	case *warehouses < 1:
		return fail(errors.New("-warehouses must be >= 1"))
	case *seeds < 1:
		return fail(errors.New("-seeds must be >= 1"))
	case *workloadKind != "tpcc" && *workloadKind != "micro":
		return fail(fmt.Errorf("unknown -workload %q (want tpcc or micro)", *workloadKind))
	}
	// Modes that build one deployment take a single geometry; -trace sweeps
	// many.
	geos, err := parseGeos(*geometry, *machine)
	if err != nil {
		return fail(err)
	}
	if *traceFile == "" && len(geos) > 1 {
		return fail(fmt.Errorf("this mode takes one -geometry (got %d)", len(geos)))
	}
	if *latscale != "" {
		scales, err := islands.ParseLatencyScales(*latscale)
		if err != nil {
			return fail(err)
		}
		var fanned []islands.Geometry
		for _, g := range geos {
			fanned = append(fanned, islands.LatencyScales(g, scales...)...)
		}
		geos = fanned
	}
	var sizeList []int
	if *sizes != "" {
		if sizeList, err = parseInts(*sizes); err != nil {
			return fail(err)
		}
	}
	mc := islands.MicroConfig{RowsPerTxn: *rowsTxn, Write: *write, PctMultisite: *multisite, ZipfS: *skew}
	opt := islands.StudyOptions{Quick: !*full, Seed: *seed}

	switch {
	case *dump != "":
		t, err := islands.ReadTraceFile(*dump)
		if err != nil {
			return fail(err)
		}
		t.Dump(stdout, *maxRecords)

	case *record != "":
		g := geos[0]
		n := *instances
		if n == 0 {
			n = g.Sockets
		}
		if cores := g.Sockets * g.CoresPerSocket; n < 1 || cores%n != 0 {
			return fail(fmt.Errorf("-instances %d does not divide the machine's %d cores", n, cores))
		}
		// Every island must hold a slice of every table.
		if *workloadKind == "tpcc" && *warehouses < n {
			return fail(fmt.Errorf("-warehouses %d cannot be spread over %d islands", *warehouses, n))
		}
		if *workloadKind == "micro" && *rows < int64(n) {
			return fail(fmt.Errorf("-rows %d cannot be spread over %d islands", *rows, n))
		}
		var t *islands.Trace
		if *workloadKind == "tpcc" {
			t = islands.RecordTPCCTrace(islands.TPCCCellSpec{
				Machine: g.Machine, Instances: n, Warehouses: *warehouses,
				Mix: islands.StandardMix(), RemotePct: 0.15, RemoteItemPct: 0.01,
				Sizing: islands.SpecTPCCSizing().Scaled(20),
			}, opt)
		} else {
			t = islands.RecordMicroTrace(islands.MicroCellSpec{
				Machine: g.Machine, Instances: n, Rows: *rows, MC: mc,
			}, opt)
		}
		if err := t.WriteFile(*record); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "recorded %s: %d records over %d streams, span %s\n",
			*record, len(t.Records), len(t.Streams), t.Span())

	case *traceFile != "":
		t, err := islands.ReadTraceFile(*traceFile)
		if err != nil {
			return fail(err)
		}
		adv, err := islands.TraceAdvise(t, geos, sizeList, *seeds, opt)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace: %s (%d records, %d streams, span %s)\n\n",
			t.Label, len(t.Records), len(t.Streams), t.Span())
		fmt.Fprintf(stdout, "%-24s %12s %10s %12s\n", "candidate", "KTps", "±σ", "multisite %")
		for _, c := range adv.Ranked {
			fmt.Fprintf(stdout, "%-24s %12.1f %10.1f %12.2f\n",
				c.Label, c.TPS/1e3, c.TPSSigma/1e3, c.MultisiteFrac*100)
		}
		fmt.Fprintf(stdout, "\nrecommended: %s (%d instances on %s)\n",
			adv.Best.Label, adv.Best.Instances, adv.Best.Geometry.Label())

	default:
		// The fine-grained candidate deploys one island per core.
		if cores := geos[0].Sockets * geos[0].CoresPerSocket; *rows < int64(cores) {
			return fail(fmt.Errorf("-rows %d cannot be spread over %d single-core islands", *rows, cores))
		}
		syntheticAdvise(stdout, geos[0], *rows, mc, *seed, *verify)
	}
	return 0
}

// parseGeos resolves -geometry/-machine into candidate geometries.
func parseGeos(geometry, machine string) ([]islands.Geometry, error) {
	if geometry != "" {
		return islands.ParseGeometries(geometry)
	}
	var m *islands.Machine
	switch machine {
	case "quad":
		m = islands.QuadSocket()
	case "octo":
		m = islands.OctoSocket()
	default:
		return nil, fmt.Errorf("unknown machine %q (want quad, octo, or use -geometry)", machine)
	}
	return []islands.Geometry{{
		Name:           m.Name,
		Sockets:        m.SocketCount,
		CoresPerSocket: m.CoresPerSocket,
		LLCBytes:       m.LLCBytes,
		Interconnect:   m.Interconnect,
	}}, nil
}

// syntheticAdvise is the historical mode: calibrate the paper's throughput
// model T = (1-p)*Tlocal + p*Tdistr on a generated microbenchmark.
func syntheticAdvise(w io.Writer, g islands.Geometry, rows int64, mc islands.MicroConfig, seed int64, verify bool) {
	m := g.Machine()
	candidates := islands.CandidateIslandSizes(m.NumCores(), m.SocketCount)
	base := islands.DefaultConfig(m, 1, rows)
	mc.Table, mc.GlobalRows, mc.Seed = 1, rows, seed
	opts := islands.DefaultAdvisorOptions()
	opts.Verify = verify

	fmt.Fprintf(w, "machine: %s\nworkload: %d rows/txn, write=%v, %.0f%% multisite, zipf %.2f\n\n",
		m, mc.RowsPerTxn, mc.Write, mc.PctMultisite*100, mc.ZipfS)
	adv := islands.Advise(base, candidates, mc.PctMultisite, mc, opts)

	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s\n", "config", "T_local", "T_distr", "predicted", "measured")
	for _, c := range adv.Candidates {
		fmt.Fprintf(w, "%-8s %10.0fK %10.0fK %10.0fK %10.0fK\n",
			fmt.Sprintf("%dISL", c.Instances),
			c.LocalTPS/1e3, c.DistrTPS/1e3, c.PredictedTPS/1e3, c.MeasuredTPS/1e3)
	}
	fmt.Fprintf(w, "\nrecommended: %dISL", adv.Best.Instances)
	if adv.Best.Instances == m.SocketCount {
		fmt.Fprintf(w, "  (one island per socket: the paper's rule of thumb)")
	}
	fmt.Fprintln(w)
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-sizes %q: want positive integers", s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sizes %q: empty list", s)
	}
	return out, nil
}
