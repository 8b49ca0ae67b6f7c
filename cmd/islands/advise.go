package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"islands/internal/harness"
	"islands/internal/topology"
	"islands/internal/trace"
	"islands/internal/workload"
)

// advise is "islands advise": it recommends an island size (number of
// database instances) for a workload on a machine — the paper's stated
// future work, "determining the ideal size of each island automatically
// for the given hardware and workload".
//
// One sweep of island size × geometry candidates answers it for two
// workload sources. The synthetic mode (default) measures a generated
// microbenchmark on every candidate and calibrates the paper's throughput
// model beside it. The trace mode answers it for a recorded workload:
// -record a trace from a running deployment, then replay it with -trace on
// every candidate. Both rank by measured throughput, with ±σ over -seeds.
// -dump renders a trace file as text.
//
//	islands advise [-machine quad|octo | -geometry 4:6:12,8:10:30:ring]
//	               [-latscale 0.5,1,2] [-sizes 1,4,24] [-seeds 3] [-full]
//	               -rows 240000 -rowstxn 10 -write -multisite 0.2 -skew 0.5
//	islands advise -record tpcc.trace [-workload tpcc|micro] [-instances N]
//	               [-warehouses 24] [-geometry S:C:LLC[:fabric]] [-full]
//	islands advise -trace tpcc.trace [-geometry ...] [-latscale ...]
//	               [-sizes 1,4,24] [-seeds 3] [-full]
//	islands advise -dump tpcc.trace [-maxrecords 5]
//
// -geometry works in every mode; -machine is a shorthand for the two
// testbed machines. Every flag is validated before the first simulation
// runs.
func advise(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("advise", stderr)
	machine := fs.String("machine", "quad", "machine model shorthand: quad or octo")
	machineSweep := machineSweepFlags(fs)

	record := fs.String("record", "", "record a trace from a measured run into FILE and exit (one -geometry)")
	workloadKind := fs.String("workload", "tpcc", "-record workload: tpcc or micro")
	instances := fs.Int("instances", 0, "-record island count (0 = one per socket)")
	warehouses := fs.Int("warehouses", 24, "-record TPC-C warehouse count")

	traceFile := fs.String("trace", "", "replay trace FILE across candidates and rank them")
	sizes := fs.String("sizes", "", "island sizes to try, comma-separated (default: every size dividing the machine)")
	seeds := seedsFlag(fs, 3)

	dump := fs.String("dump", "", "print a text rendering of trace FILE and exit")
	maxRecords := fs.Int("maxrecords", 3, "-dump records shown per stream (0 = all)")

	rows := fs.Int64("rows", 240000, "synthetic: global rows in the dataset")
	rowsTxn := fs.Int("rowstxn", 10, "synthetic/micro: rows accessed per transaction")
	write := fs.Bool("write", false, "synthetic/micro: update workload (default read-only)")
	multisite := fs.Float64("multisite", 0.2, "synthetic/micro: fraction of multisite transactions (0..1)")
	skew := fs.Float64("skew", 0, "synthetic/micro: Zipfian skew factor (0 = uniform)")
	seed := seedFlag(fs)
	full := fullFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int { return usageError(stderr, "advise", err) }

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
	geos, err := machineSweep()
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
	mc := workload.MicroConfig{RowsPerTxn: *rowsTxn, Write: *write, PctMultisite: *multisite, ZipfS: *skew}
	opt := harness.Options{Quick: !*full, Seed: *seed}

	switch {
	case *dump != "":
		t, err := trace.ReadFile(*dump)
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
		var t *trace.Trace
		if *workloadKind == "tpcc" {
			t = harness.RecordTPCC(harness.TPCCSpec{
				Machine: g.Machine, Instances: n, Warehouses: *warehouses,
				Mix: workload.StandardMix(), RemotePct: 0.15, RemoteItemPct: 0.01,
				Sizing: workload.SpecSizing().Scaled(20),
			}, opt)
		} else {
			t = harness.RecordMicro(harness.MicroSpec{
				Machine: g.Machine, Instances: n, Rows: *rows, MC: mc,
			}, opt)
		}
		if err := t.WriteFile(*record); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "recorded %s: %d records over %d streams, span %s\n",
			*record, len(t.Records), len(t.Streams), t.Span())

	case *traceFile != "":
		t, err := trace.ReadFile(*traceFile)
		if err != nil {
			return fail(err)
		}
		adv, err := harness.AdviseTrace(t, geos, sizeList, *seeds, opt)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace: %s (%d records, %d streams, span %s)\n\n%s",
			t.Label, len(t.Records), len(t.Streams), t.Span(), adv.Format())

	default:
		adv, err := harness.AdviseMicro(mc, *rows, geos, sizeList, *seeds, opt)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "workload: %d rows/txn, write=%v, %.0f%% multisite, zipf %.2f\n\n%s",
			mc.RowsPerTxn, mc.Write, mc.PctMultisite*100, mc.ZipfS, adv.Format())
	}
	return 0
}

// testbedGeometry resolves the -machine shorthand into its geometry.
func testbedGeometry(machine string) ([]harness.Geometry, error) {
	build := map[string]func() *topology.Machine{"quad": topology.QuadSocket, "octo": topology.OctoSocket}[machine]
	if build == nil {
		return nil, fmt.Errorf("unknown machine %q (want quad, octo, or use -geometry)", machine)
	}
	m := build()
	return []harness.Geometry{{
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
