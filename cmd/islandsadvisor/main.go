// Command islandsadvisor recommends an island size (number of database
// instances) for a workload on a machine — the paper's stated future work:
// "determining the ideal size of each island automatically for the given
// hardware and workload".
//
// It answers the question for two workload sources through one sweep of
// island size × geometry candidates. The synthetic mode (default) measures
// a generated microbenchmark on every candidate and calibrates the paper's
// throughput model beside it. The trace mode answers it for *your*
// workload: record a trace from a running deployment, then replay it on
// every candidate. Both rank by measured throughput, with ±σ over -seeds.
//
// Usage:
//
//	# synthetic advisor
//	islandsadvisor [-machine quad|octo | -geometry 4:6:12,8:10:30:ring]
//	               [-latscale 0.5,1,2] [-sizes 1,4,24] [-seeds 3] [-full]
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
// islandsprobe and works in every mode; -machine is a shorthand for the two
// testbed machines. -latscale fans every -geometry machine across
// interconnect latency scales.
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
	geometry := fs.String("geometry", "", "machine geometries sockets:cores:LLC-MB[:fabric], comma-separated (overrides -machine; -record takes one)")
	latscale := fs.String("latscale", "", "interconnect latency scales (e.g. 0.5,1,2) fanning every -geometry machine")

	record := fs.String("record", "", "record a trace from a measured run into FILE and exit")
	workloadKind := fs.String("workload", "tpcc", "-record workload: tpcc or micro")
	instances := fs.Int("instances", 0, "-record island count (0 = one per socket)")
	warehouses := fs.Int("warehouses", 24, "-record TPC-C warehouse count")

	traceFile := fs.String("trace", "", "replay trace FILE across candidates and rank them")
	sizes := fs.String("sizes", "", "island sizes to try, comma-separated (default: every size dividing the machine)")
	seeds := fs.Int("seeds", 3, "seed replicas for ±σ (-trace replicas rotate the stream deal)")

	dump := fs.String("dump", "", "print a text rendering of trace FILE and exit")
	maxRecords := fs.Int("maxrecords", 3, "-dump records shown per stream (0 = all)")

	rows := fs.Int64("rows", 240000, "synthetic: global rows in the dataset")
	rowsTxn := fs.Int("rowstxn", 10, "synthetic/micro: rows accessed per transaction")
	write := fs.Bool("write", false, "synthetic/micro: update workload (default read-only)")
	multisite := fs.Float64("multisite", 0.2, "synthetic/micro: fraction of multisite transactions (0..1)")
	skew := fs.Float64("skew", 0, "synthetic/micro: Zipfian skew factor (0 = uniform)")
	seed := fs.Int64("seed", 42, "workload and placement seed")
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
	geos, err := islands.ParseMachineSweep(*geometry, *latscale)
	if err == nil && geos == nil {
		geos, err = testbedGeometry(*machine)
	}
	if err != nil {
		return fail(err)
	}
	if *record != "" && len(geos) > 1 {
		return fail(fmt.Errorf("-record takes one -geometry (got %d)", len(geos)))
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
		fmt.Fprintf(stdout, "trace: %s (%d records, %d streams, span %s)\n\n%s",
			t.Label, len(t.Records), len(t.Streams), t.Span(), adv.Format())

	default:
		adv, err := islands.Advise(mc, *rows, geos, sizeList, *seeds, opt)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "workload: %d rows/txn, write=%v, %.0f%% multisite, zipf %.2f\n\n%s",
			mc.RowsPerTxn, mc.Write, mc.PctMultisite*100, mc.ZipfS, adv.Format())
	}
	return 0
}

// testbedGeometry resolves the -machine shorthand into its geometry.
func testbedGeometry(machine string) ([]islands.Geometry, error) {
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
