package core

import (
	"fmt"
	"testing"

	"islands/internal/engine"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/topology"
	"islands/internal/workload"
)

func TestRangePartitionerEvenSplit(t *testing.T) {
	p := NewRangePartitioner(4, map[storage.TableID]int64{1: 240000})
	for _, tc := range []struct {
		key   int64
		inst  engine.InstanceID
		local int64
	}{
		{0, 0, 0}, {59999, 0, 59999}, {60000, 1, 0}, {239999, 3, 59999},
	} {
		iid, lk := p.Locate(1, tc.key)
		if iid != tc.inst || lk != tc.local {
			t.Errorf("Locate(%d) = (%d,%d), want (%d,%d)", tc.key, iid, lk, tc.inst, tc.local)
		}
	}
	if p.LocalRows(1, 2) != 60000 {
		t.Error("LocalRows wrong")
	}
	base, rows := p.Range(1, 3)
	if base != 180000 || rows != 60000 {
		t.Errorf("Range(3) = %d,%d", base, rows)
	}
}

func TestRangePartitionerRemainderToLast(t *testing.T) {
	p := NewRangePartitioner(4, map[storage.TableID]int64{1: 103})
	total := int64(0)
	for i := 0; i < 4; i++ {
		total += p.LocalRows(1, i)
	}
	if total != 103 {
		t.Errorf("rows across instances = %d, want 103", total)
	}
	iid, lk := p.Locate(1, 102)
	if iid != 3 {
		t.Errorf("last key on instance %d, want 3", iid)
	}
	if base, _ := p.Range(1, 3); lk != 102-base {
		t.Error("local key inconsistent with Range")
	}
}

// TestRangePartitionerRefusesTooFewRows: a table with fewer rows than
// instances would leave an instance with no rows, or fewer than none; the
// partitioner refuses it by name, alone and under NewDeployment.
func TestRangePartitionerRefusesTooFewRows(t *testing.T) {
	for _, rows := range []int64{3, 2} {
		for name, build := range map[string]func(){
			"NewRangePartitioner": func() { NewRangePartitioner(4, map[storage.TableID]int64{1: rows}) },
			"NewDeployment":       func() { NewDeployment(DefaultConfig(topology.QuadSocket(), 4, rows)) },
		} {
			wantPanic(t, fmt.Sprintf("%s over %d rows", name, rows), fmt.Sprintf("core: table 1 has %d rows, fewer than its 4 instances", rows), build)
		}
	}
	if got := NewRangePartitioner(4, map[storage.TableID]int64{1: 4}).LocalRows(1, 3); got != 1 {
		t.Errorf("4 rows over 4 instances: the last holds %d, want 1", got)
	}
}

// TestRangePartitionerUndeclaredTablePanics: Locate and Range on a table
// the partitioner was not built with panic by name, whether the id is
// inside the table slice or beyond it.
func TestRangePartitionerUndeclaredTablePanics(t *testing.T) {
	p := NewRangePartitioner(4, map[storage.TableID]int64{1: 400, 3: 400})
	for _, id := range []storage.TableID{0, 2, 4, storage.MaxTableID, -1} {
		wantPanic(t, fmt.Sprintf("Locate(%d)", id), fmt.Sprintf("core: Locate on undeclared table %d", id), func() { p.Locate(id, 0) })
		wantPanic(t, fmt.Sprintf("Range(%d)", id), fmt.Sprintf("core: Range on undeclared table %d", id), func() { p.Range(id, 0) })
	}
}

func wantPanic(t *testing.T, what, msg string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r != msg {
			t.Errorf("%s: recovered %v, want panic %q", what, r, msg)
		}
	}()
	fn()
}

// TestDeploymentRefusesWideMachine: a machine with more sockets than a
// mem.Line's sharer mask tracks would deploy with broken coherence — a core
// past socket 15 re-reading a line it holds clean would pay a cross-socket
// fetch every time. The deployment refuses it by name before building
// anything.
func TestDeploymentRefusesWideMachine(t *testing.T) {
	m := topology.Custom("wide", 32, 1, 12<<20)
	cfg := DefaultConfig(m, 32, 32000)
	cfg.LocalOnly = true
	wantPanic(t, "NewDeployment", "mem: machine wide has 32 sockets; a line's sharer mask tracks at most 16",
		func() { NewDeployment(cfg).Close() })
}

func TestDeploymentShapes(t *testing.T) {
	m := topology.QuadSocket()
	for _, n := range []int{1, 4, 24} {
		cfg := DefaultConfig(m, n, 240000)
		cfg.LocalOnly = true
		d := NewDeployment(cfg)
		if len(d.Instances) != n {
			t.Fatalf("%dISL: got %d instances", n, len(d.Instances))
		}
		if d.Label() != map[int]string{1: "1ISL", 4: "4ISL", 24: "24ISL"}[n] {
			t.Errorf("label = %s", d.Label())
		}
		// Single-core instances get the single-thread optimization.
		for _, in := range d.Instances {
			if n == 24 && in.Locks().Enabled {
				t.Error("24ISL instance should have locking disabled")
			}
			if n == 4 && !in.Locks().Enabled {
				t.Error("4ISL instance should have locking enabled")
			}
		}
		d.Close()
	}
}

func TestDeploymentRunsMicroWorkload(t *testing.T) {
	m := topology.QuadSocket()
	cfg := DefaultConfig(m, 4, 24000)
	d := NewDeployment(cfg)
	defer d.Close()
	src := workload.NewMicro(workload.MicroConfig{
		Table: 1, GlobalRows: 24000, RowsPerTxn: 4, PctMultisite: 0.2, Seed: 1,
	}, d.Part)
	d.Start(src)
	res := d.Run(500*sim.Microsecond, 5*sim.Millisecond)
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.ThroughputTPS <= 0 {
		t.Fatal("throughput not computed")
	}
	if res.Multisite == 0 {
		t.Error("20% multisite produced none")
	}
	if res.Local == 0 {
		t.Error("no local transactions")
	}
	if res.AvgLatency <= 0 {
		t.Error("latency not computed")
	}
	if res.Msgs == 0 {
		t.Error("multisite workload sent no messages")
	}
}

func TestMeasurementWindowIsDelta(t *testing.T) {
	m := topology.QuadSocket()
	cfg := DefaultConfig(m, 2, 24000)
	d := NewDeployment(cfg)
	defer d.Close()
	src := workload.NewMicro(workload.MicroConfig{
		Table: 1, GlobalRows: 24000, RowsPerTxn: 2, Seed: 2,
	}, d.Part)
	d.Start(src)
	r1 := d.Run(1*sim.Millisecond, 2*sim.Millisecond)
	r2 := d.Run(0, 2*sim.Millisecond)
	// Two consecutive equal windows of a steady workload: within 2x.
	lo, hi := r1.Committed/2, r1.Committed*2
	if r2.Committed < lo || r2.Committed > hi {
		t.Errorf("second window committed %d, first %d: not steady", r2.Committed, r1.Committed)
	}
}

func TestSEFlatVsFGDecline(t *testing.T) {
	// The core claim of Figure 9, in miniature: fine-grained shared-nothing
	// beats shared-everything at 0% multisite and falls behind at 100%.
	m := topology.QuadSocket()
	run := func(n int, pct float64) float64 {
		cfg := DefaultConfig(m, n, 24000)
		d := NewDeployment(cfg)
		defer d.Close()
		src := workload.NewMicro(workload.MicroConfig{
			Table: 1, GlobalRows: 24000, RowsPerTxn: 4, PctMultisite: pct, Seed: 3,
		}, d.Part)
		d.Start(src)
		return d.Run(1*sim.Millisecond, 8*sim.Millisecond).ThroughputTPS
	}
	fg0, fg100 := run(24, 0), run(24, 1)
	se0, se100 := run(1, 0), run(1, 1)
	if fg0 <= se0 {
		t.Errorf("at 0%% multisite FG (%.0f) should beat SE (%.0f)", fg0, se0)
	}
	if fg100 >= fg0/2 {
		t.Errorf("FG should collapse under 100%% multisite: %.0f -> %.0f", fg0, fg100)
	}
	seDrop := se100 / se0
	if seDrop < 0.7 {
		t.Errorf("SE should stay roughly flat across multisite: ratio %.2f", seDrop)
	}
}

func TestPlacementSpreadVsIslands(t *testing.T) {
	m := topology.QuadSocket()
	cores := func(p PlacementKind) [][]topology.CoreID {
		cfg := DefaultConfig(m, 4, 24000)
		cfg.Placement = p
		d := NewDeployment(cfg)
		defer d.Close()
		out := make([][]topology.CoreID, len(d.Instances))
		for i, in := range d.Instances {
			out[i] = in.Cores
		}
		return out
	}
	for _, cs := range cores(PlacementIslands) {
		if topology.SocketsSpanned(m, cs) != 1 {
			t.Error("islands instance spans sockets")
		}
	}
	for _, cs := range cores(PlacementSpread) {
		if topology.SocketsSpanned(m, cs) != 4 {
			t.Error("spread instance does not span all sockets")
		}
	}
}

func TestExplicitInstanceCores(t *testing.T) {
	m := topology.QuadSocket()
	cfg := DefaultConfig(m, 1, 2400)
	cfg.InstanceCores = [][]topology.CoreID{{0, 6, 12, 18}} // fig3 "spread" workers
	d := NewDeployment(cfg)
	defer d.Close()
	if len(d.Instances) != 1 || len(d.Instances[0].Cores) != 4 {
		t.Fatal("explicit cores not honored")
	}
}

func TestCostPerTxnAndImbalance(t *testing.T) {
	me := Measurement{Window: sim.Second}
	me.Committed = 1000
	me.PerInstance = []uint64{400, 200, 200, 200}
	if me.CostPerTxn(24) != sim.Time(24*int64(sim.Second)/1000) {
		t.Error("CostPerTxn wrong")
	}
	if imb := me.Imbalance(); imb != 1.6 {
		t.Errorf("Imbalance = %v, want 1.6", imb)
	}
}
