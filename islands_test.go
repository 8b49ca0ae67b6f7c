package islands_test

import (
	"fmt"
	"strings"
	"testing"

	"islands"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	machine := islands.QuadSocket()
	if machine.NumCores() != 24 {
		t.Fatalf("quad-socket has %d cores", machine.NumCores())
	}
	cfg := islands.DefaultConfig(machine, 4, 24000)
	d := islands.NewDeployment(cfg)
	defer d.Close()
	d.Start(islands.NewMicroWorkload(islands.MicroConfig{
		Table: 1, GlobalRows: 24000, RowsPerTxn: 4, PctMultisite: 0.2, Seed: 1,
	}, d))
	m := d.Run(500*islands.Microsecond, 4*islands.Millisecond)
	if m.Committed == 0 || m.ThroughputTPS <= 0 {
		t.Fatal("deployment did no work")
	}
	if m.Multisite == 0 {
		t.Error("expected multisite transactions at 20%")
	}
	bd := m.BreakdownPerTxn()
	if bd[islands.BucketExecution] <= 0 {
		t.Error("breakdown missing execution time")
	}
	if d.Label() != "4ISL" {
		t.Errorf("label = %s", d.Label())
	}
}

func TestPublicAPICustomMachineAndPlacement(t *testing.T) {
	m := islands.CustomMachine("duo", 2, 4, 8<<20)
	cfg := islands.DefaultConfig(m, 2, 8000)
	cfg.Placement = islands.PlacementSpread
	d := islands.NewDeployment(cfg)
	defer d.Close()
	d.Start(islands.NewMicroWorkload(islands.MicroConfig{
		Table: 1, GlobalRows: 8000, RowsPerTxn: 2, Seed: 2,
	}, d))
	if m2 := d.Run(200*islands.Microsecond, 2*islands.Millisecond); m2.Committed == 0 {
		t.Fatal("custom machine deployment idle")
	}
}

func TestPublicAPITPCCPayment(t *testing.T) {
	machine := islands.QuadSocket()
	cfg := islands.Config{
		Machine:   machine,
		Instances: 4,
		Placement: islands.PlacementIslands,
		Mechanism: islands.UnixSocket,
		Tables:    islands.TPCCTables(24),
		Wal:       islands.DefaultWalOptions(),
	}
	d := islands.NewDeployment(cfg)
	defer d.Close()
	d.Start(islands.NewPaymentWorkload(islands.TPCCConfig{
		Warehouses: 24, RemotePct: 0.15, Seed: 3,
	}, d))
	m := d.Run(500*islands.Microsecond, 4*islands.Millisecond)
	if m.Committed == 0 {
		t.Fatal("no payments committed")
	}
	if m.Prepares == 0 {
		t.Error("15% remote customers should force some 2PC prepares")
	}
}

func TestPublicAPITPCCFullMix(t *testing.T) {
	machine := islands.QuadSocket()
	mix := islands.StandardMix()
	sizing := islands.SpecTPCCSizing().Scaled(20)
	cfg := islands.Config{
		Machine:   machine,
		Instances: 4,
		Placement: islands.PlacementIslands,
		Mechanism: islands.UnixSocket,
		Tables:    islands.TPCCMixTables(8, mix, sizing),
		Wal:       islands.DefaultWalOptions(),
	}
	if len(cfg.Tables) != 9 {
		t.Fatalf("full mix declares %d tables, want 9", len(cfg.Tables))
	}
	d := islands.NewDeployment(cfg)
	defer d.Close()
	d.Start(islands.NewTPCCWorkload(islands.TPCCMixConfig{
		Warehouses: 8, Weights: mix,
		RemotePct: 0.15, RemoteItemPct: 0.01,
		Sizing: sizing, Seed: 3,
	}, d))
	m := d.Run(500*islands.Microsecond, 4*islands.Millisecond)
	if m.Committed == 0 {
		t.Fatal("no mix transactions committed")
	}
	if m.Multisite == 0 {
		t.Error("remote payments/stock should produce multisite transactions")
	}
}

func TestPublicAPICustomRequestSource(t *testing.T) {
	machine := islands.QuadSocket()
	cfg := islands.DefaultConfig(machine, 2, 2400)
	d := islands.NewDeployment(cfg)
	defer d.Close()
	d.Start(fixedReads{})
	if m := d.Run(200*islands.Microsecond, 2*islands.Millisecond); m.Committed == 0 {
		t.Fatal("custom source produced no commits")
	}
}

// fixedReads demonstrates implementing islands.RequestSource directly.
type fixedReads struct{}

func (fixedReads) Next(inst islands.InstanceID, worker int) islands.Request {
	return islands.Request{Ops: []islands.Op{{Table: 1, Key: 7, Kind: islands.OpRead}}}
}

func TestExperimentsRegistryViaFacade(t *testing.T) {
	if len(islands.Experiments()) < 12 {
		t.Fatalf("only %d experiments registered", len(islands.Experiments()))
	}
	res, err := islands.RunExperiment("fig6", islands.StudyOptions{Quick: true, Seed: 1})
	if err != nil || len(res.Tables) == 0 {
		t.Fatalf("fig6 did not run via facade: %v", err)
	}
	_, err = islands.RunExperiment("nope", islands.StudyOptions{})
	if err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	for _, id := range islands.ExperimentIDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-id error does not name valid id %s: %v", id, err)
		}
	}
	if len(islands.ExperimentIDs()) != len(islands.Experiments()) {
		t.Error("ExperimentIDs and Experiments disagree")
	}
}

// TestPublicAPIInterconnectRoundTrip pins the acceptance criterion of the
// interconnect refactor: a Geometry carrying a fabric and a latency scale
// round-trips through the public API into a machine model — without
// touching internal/ — and both knobs are observable in the machine's
// costs.
func TestPublicAPIInterconnectRoundTrip(t *testing.T) {
	geo := islands.Geometry{Sockets: 8, CoresPerSocket: 2, Interconnect: islands.Ring(8), LatencyScale: 0.5}
	m := geo.Machine()
	if m.Interconnect.Name != "ring" || m.MeanHops() <= 1 {
		t.Fatalf("interconnect not honored: %q, mean hops %v", m.Interconnect.Name, m.MeanHops())
	}
	if m.Hops(0, 4) != 4 || m.Hops(0, 7) != 1 {
		t.Errorf("ring hops wrong: Hops(0,4)=%d Hops(0,7)=%d", m.Hops(0, 4), m.Hops(0, 7))
	}
	unscaled := islands.Geometry{Sockets: 8, CoresPerSocket: 2, Interconnect: islands.Ring(8)}.Machine()
	far := islands.CoreID(unscaled.NumCores() - 1)
	if got, want := m.TransferCost(0, far), unscaled.TransferCost(0, far); got >= want {
		t.Errorf("LatencyScale 0.5 did not cut the cross-socket transfer: %v vs %v", got, want)
	}
	if m.TransferCost(0, 1) != unscaled.TransferCost(0, 1) {
		t.Error("LatencyScale touched a same-socket transfer")
	}

	// The sweep helpers fan a base geometry without losing distinguishable
	// labels, ready for Machines/Grid/Seeds composition.
	fabrics := islands.Interconnects(geo, islands.FullyConnected(8), islands.Mesh2D(2, 4), islands.Torus2D(2, 4))
	scales := islands.LatencyScales(geo, 0.5, 1, 2)
	if len(fabrics) != 3 || len(scales) != 3 {
		t.Fatalf("sweep helpers built %d/%d geometries", len(fabrics), len(scales))
	}
	seen := map[string]bool{}
	for _, g := range append(fabrics, scales...) {
		if seen[g.Label()] {
			t.Errorf("duplicate sweep label %q", g.Label())
		}
		seen[g.Label()] = true
		if g.Machine().NumCores() != 16 {
			t.Errorf("sweep variant %q lost the base geometry", g.Label())
		}
	}

	if _, err := islands.CustomHops([][]int{{0, 1}, {2, 0}}); err == nil {
		t.Error("CustomHops accepted an asymmetric matrix")
	}
	ic, err := islands.CustomHops([][]int{{0, 2}, {2, 0}})
	if err != nil || ic.Hops(0, 1) != 2 {
		t.Errorf("CustomHops rejected a valid matrix: %v", err)
	}
}

// TestPublicStudyAPI drives the exported study surface end to end the way
// examples/study does: a Grid of MicroCells on a Machines-built
// custom geometry, seed-replicated with Seeds, run at two parallelism
// settings, with identical mean ±σ tables both times.
func TestPublicStudyAPI(t *testing.T) {
	geo := islands.Geometry{Name: "mini", Sockets: 2, CoresPerSocket: 2, LLCBytes: 4 << 20}
	machine := islands.Machines(geo)[0]
	sizes := []int{4, 1}

	build := func() *islands.Study {
		st := &islands.Study{
			ID: "mini", Title: "mini geometry study",
			Tables: []*islands.Table{
				islands.NewTable("throughput", "KTps", "config", []string{"4ISL", "1ISL"}, "", []string{"v"}),
			},
		}
		st.Cells = islands.Grid(func(idx []int) islands.Cell {
			return islands.MicroCell(
				fmt.Sprintf("mini/%dISL", sizes[idx[0]]),
				islands.MicroCellSpec{
					Machine:   machine,
					Instances: sizes[idx[0]],
					Rows:      2400,
					MC:        islands.MicroConfig{RowsPerTxn: 2, PctMultisite: 0.2},
				},
				islands.TPSEmit(0, idx[0], 0))
		}, len(sizes))
		return st
	}

	var results []*islands.ExperimentResult
	for _, par := range []int{1, 2} {
		res := build().Seeds(2).Run(islands.StudyOptions{Quick: true, Seed: 9, Parallel: par})
		tab := res.Find("throughput")
		if tab == nil {
			t.Fatal("throughput table missing")
		}
		if len(tab.Cols) != 2 || tab.Cols[1] != "v ±σ" {
			t.Fatalf("Seeds did not double columns: %v", tab.Cols)
		}
		for i := range tab.Rows {
			if tab.Get(i, 0) <= 0 {
				t.Errorf("%s mean throughput = %v, want > 0", tab.Rows[i], tab.Get(i, 0))
			}
		}
		results = append(results, res)
	}
	a, b := results[0].Tables[0], results[1].Tables[0]
	for i := range a.Rows {
		for j := range a.Cols {
			if a.Get(i, j) != b.Get(i, j) {
				t.Errorf("study result depends on parallelism at [%d][%d]: %v != %v",
					i, j, a.Get(i, j), b.Get(i, j))
			}
		}
	}
}

func TestAdviseViaFacade(t *testing.T) {
	quad := islands.Geometry{Sockets: 4, CoresPerSocket: 6}
	adv, err := islands.Advise(islands.MicroConfig{RowsPerTxn: 4}, 24000, []islands.Geometry{quad}, []int{1, 24}, 1,
		islands.StudyOptions{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Best.Instances != 24 {
		t.Errorf("advisor picked %dISL for local-only reads, want 24", adv.Best.Instances)
	}
}

// TestPublicAPITraceRecordReplay drives the trace subsystem end-to-end
// through exported identifiers only: record a micro workload, round-trip
// the binary encoding, replay on an identical deployment for bit-equal
// metrics, and run the trace-driven advisor over the result.
func TestPublicAPITraceRecordReplay(t *testing.T) {
	machine := islands.QuadSocket()
	cfg := islands.DefaultConfig(machine, 4, 24000)
	cfg.Seed = 7
	mc := islands.MicroConfig{
		Table: 1, GlobalRows: 24000, RowsPerTxn: 4, PctMultisite: 0.2, Seed: 7,
	}

	d := islands.NewDeployment(cfg)
	rec := islands.NewTraceRecorder(islands.NewMicroWorkload(mc, d),
		"micro quad/4ISL", cfg.Tables)
	d.Start(rec)
	live := d.Run(500*islands.Microsecond, 3*islands.Millisecond)
	d.Close()
	tr := rec.Finish()
	if len(tr.Records) == 0 || len(tr.Streams) != 24 || tr.Span() <= 0 {
		t.Fatalf("recorded %d records over %d streams spanning %s",
			len(tr.Records), len(tr.Streams), tr.Span())
	}

	buf, err := tr.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := islands.DecodeTrace(buf)
	if err != nil {
		t.Fatal(err)
	}
	if islands.TraceTables(tr2)[0].Rows != 24000 {
		t.Fatalf("decoded schema lost the row count: %+v", islands.TraceTables(tr2))
	}

	d2 := islands.NewDeployment(cfg)
	defer d2.Close()
	rep, err := islands.NewTraceReplayer(tr2, d2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact() {
		t.Fatal("same-deployment replay did not select exact mode")
	}
	d2.Start(rep)
	replay := d2.Run(500*islands.Microsecond, 3*islands.Millisecond)
	if a, b := fmt.Sprintf("%+v", live), fmt.Sprintf("%+v", replay); a != b {
		t.Fatalf("replay metrics differ from the recorded run:\nlive   %s\nreplay %s", a, b)
	}

	g, err := islands.ParseGeometry("4:6:12:ring")
	if err != nil {
		t.Fatal(err)
	}
	adv, err := islands.TraceAdvise(tr2, []islands.Geometry{g}, []int{4}, 1,
		islands.StudyOptions{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Ranked) != 1 || adv.Best.TPS <= 0 {
		t.Fatalf("advisor returned %+v", adv.Best)
	}
}
