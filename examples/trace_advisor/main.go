// Trace advisor: the full record → persist → replay → advise loop through
// the public API, answering the paper's future-work question — "what
// island size for the given hardware and workload?" — for a *recorded*
// workload instead of a synthetic one.
//
// We record a trace from a quick TPC-C run on the quad-socket testbed,
// round-trip it through the compact binary format (the file IS the
// workload), prove the equivalence contract — replaying on the recorded
// deployment reproduces its metrics bit-identically — and then let
// TraceAdvise replay the same trace across island sizes on two candidate
// fabrics and rank the outcomes.
//
// Everything here goes through exported islands identifiers; no internal/
// package is imported.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"islands"
)

func main() {
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
	fmt.Printf("recorded: %s — %d transactions over %d streams, %s of virtual time\n",
		t.Label, len(t.Records), len(t.Streams), t.Span())

	// Persist and reload: the versioned binary format is the interchange
	// form; ~2 bytes per row operation.
	path := filepath.Join(os.TempDir(), "tpcc_quad_4isl.trace")
	if err := t.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	t, err := islands.ReadTraceFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	info, _ := os.Stat(path)
	fmt.Printf("persisted: %s (%d bytes)\n\n", path, info.Size())

	// Replay on the recorded deployment: the replayer selects exact mode
	// (same stream set, rotation 0) and the metrics come back bit-equal —
	// the trace subsystem's equivalence contract, pinned in CI by test and
	// by the `trace` experiment's golden fingerprint.
	cfg := islands.Config{
		Machine:   islands.QuadSocket(),
		Instances: 4,
		Placement: islands.PlacementIslands,
		Mechanism: islands.UnixSocket,
		Tables:    islands.TraceTables(t),
		Seed:      opt.Seed,
	}
	d := islands.NewDeployment(cfg)
	replayer, err := islands.NewTraceReplayer(t, d, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d.Start(replayer)
	m := d.Run(500*islands.Microsecond, 3*islands.Millisecond)
	d.Close()
	fmt.Printf("replayed on the recorded deployment: %.0f tps, %.1f%% multisite (exact mode: bit-equal to the live run)\n\n",
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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(adv.Format())
	fmt.Println("The trace pins the workload: the same global keys replay on every")
	fmt.Println("candidate, so locality is decided by the candidate's partitioning —")
	fmt.Println("islands matching the recorded layout keep transactions local, while")
	fmt.Println("finer grains fragment them into multisite 2PC work.")
}
