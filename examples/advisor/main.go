// Deployment advisor: the paper closes by asking how to "determine the
// ideal size of each island automatically for the given hardware and
// workload" (Section 8). This example answers it twice with the library's
// advisor, through exported islands identifiers only.
//
// First for three generated workloads: the advisor measures each on every
// candidate island size (mean ±σ over three seeds) and calibrates the
// paper's throughput model
//
//	T = (1-p) * T_local(n) + p * T_distr(n)
//
// beside the measurement.
//
// Then for a *recorded* workload, through the full record → persist →
// replay → advise loop: record a trace from a quick TPC-C run on the
// quad-socket testbed, round-trip it through the compact binary format
// (the file IS the workload), prove the equivalence contract — replaying on
// the recorded deployment reproduces its metrics bit-identically — and let
// TraceAdvise replay the same trace across island sizes on two candidate
// fabrics and rank the outcomes.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"islands"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	for _, c := range []struct {
		name       string
		pMultisite float64
		write      bool
		skew       float64
	}{
		{"perfectly partitionable updates", 0, true, 0},
		{"mixed workload with distributed transactions", 0.4, true, 0},
		{"skewed read-mostly workload", 0.2, false, 0.9},
	} {
		// The quad-socket testbed; add geometries to compare machines too.
		quad := islands.Geometry{Name: "quad", Sockets: 4, CoresPerSocket: 6}
		mc := islands.MicroConfig{RowsPerTxn: 10, Write: c.write, PctMultisite: c.pMultisite, ZipfS: c.skew}
		adv, err := islands.Advise(mc, 240000, []islands.Geometry{quad}, []int{1, 2, 4, 12, 24}, 3,
			islands.StudyOptions{Quick: true, Seed: 3})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (p=%.0f%%, write=%v, skew=%.2f)\n%s\n", c.name, c.pMultisite*100, c.write, c.skew, adv.Format())
	}
	return traceAdvise(w)
}

// traceAdvise records, persists, replays and advises on a TPC-C trace.
func traceAdvise(w io.Writer) error {
	opt := islands.StudyOptions{Quick: true, Seed: 42}

	// Record: run the standard TPC-C mix on 4 islands of the quad-socket
	// machine with a recorder teeing every transaction into a trace.
	spec := islands.TPCCCellSpec{
		Machine:   islands.QuadSocket,
		Instances: 4, Warehouses: 24,
		Mix:       islands.StandardMix(),
		RemotePct: 0.15, RemoteItemPct: 0.01,
		Sizing: islands.SpecTPCCSizing().Scaled(20),
	}
	t := islands.RecordTPCCTrace(spec, opt)
	fmt.Fprintf(w, "recorded: %s — %d transactions over %d streams, %s of virtual time\n",
		t.Label, len(t.Records), len(t.Streams), t.Span())

	// Persist and reload: the versioned binary format is the interchange
	// form; ~2 bytes per row operation. The file lives in a directory of
	// its own, so concurrent runs never share it.
	dir, err := os.MkdirTemp("", "islands-trace")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "tpcc_quad_4isl.trace")
	if err := t.WriteFile(path); err != nil {
		return err
	}
	if t, err = islands.ReadTraceFile(path); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "persisted: %s (%d bytes)\n\n", filepath.Base(path), info.Size())

	// Replay on the recorded deployment: the replayer selects exact mode
	// (same stream set, rotation 0) and the metrics come back bit-equal —
	// the trace subsystem's equivalence contract, pinned in CI by test and
	// by the `trace` experiment's golden fingerprint.
	d := islands.NewDeployment(islands.Config{
		Machine:   islands.QuadSocket(),
		Instances: 4,
		Placement: islands.PlacementIslands,
		Mechanism: islands.UnixSocket,
		Tables:    islands.TraceTables(t),
		Seed:      opt.Seed,
	})
	replayer, err := islands.NewTraceReplayer(t, d, 0)
	if err != nil {
		d.Close()
		return err
	}
	d.Start(replayer)
	m := d.Run(500*islands.Microsecond, 3*islands.Millisecond)
	d.Close()
	fmt.Fprintf(w, "replayed on the recorded deployment: %.0f tps, %.1f%% multisite (exact mode: bit-equal to the live run)\n\n",
		m.ThroughputTPS, 100*float64(m.Multisite)/float64(m.Local+m.Multisite))

	// Advise: replay the trace across island sizes on the testbed fabric
	// and on a ring — "would a cheaper fabric change the verdict for MY
	// workload?". Three seed replicas rotate the stream deal for ±σ.
	geos := []islands.Geometry{
		{Sockets: 4, CoresPerSocket: 6, LLCBytes: 12 << 20},
		{Sockets: 4, CoresPerSocket: 6, LLCBytes: 12 << 20, Interconnect: islands.Ring(4)},
	}
	adv, err := islands.TraceAdvise(t, geos, []int{24, 4, 1}, 3, opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, adv.Format())
	fmt.Fprintln(w, "The trace pins the workload: the same global keys replay on every")
	fmt.Fprintln(w, "candidate, so locality is decided by the candidate's partitioning —")
	fmt.Fprintln(w, "islands matching the recorded layout keep transactions local, while")
	fmt.Fprintln(w, "finer grains fragment them into multisite 2PC work.")
	return nil
}
