package core

import (
	"runtime"
	"testing"

	"islands/internal/ipc"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// steadyAllocBound is the most heap objects per committed transaction the
// measured window of TestSteadyStateAllocations may allocate. The window
// measured 0.088–0.092 when the bound was set, 0.093–0.095 under -race (it
// was 0.81 before B-tree splits, lock-table lists, first contended latches
// and the mix's op buffers stopped allocating). What is left is what pages
// and rows new to the window add — the I/O wait lists of pages read while
// another thread waits for them, the Page structs and version arena chunks
// of pages first touched, the slabs of B-trees still growing — and the last
// doublings of kernel queues and engine scratch short of their peak.
const steadyAllocBound = 0.12

// TestSteadyStateAllocations runs the benchmark's TPC-C cell shape — four
// islands of six workers, the full mix over 24 warehouses, here at 1/100 of
// the specification's cardinalities — through 12 ms of warm windows, then
// counts the heap objects an 8 ms window allocates per commit. By then undo
// logs, coordinator scratches, lock heads, held sets, latch and kernel queues
// have all grown to what the load needs, and recycling them must keep the
// window near allocation-free.
func TestSteadyStateAllocations(t *testing.T) {
	const warehouses = 24
	z := workload.SpecSizing().Scaled(100)
	cfg := Config{Machine: topology.QuadSocket(), Instances: 4,
		Placement: PlacementIslands, Mechanism: ipc.UnixSocket, Seed: 7}
	for _, tb := range workload.MixTableSet(warehouses, workload.StandardMix(), z) {
		cfg.Tables = append(cfg.Tables, TableDecl{ID: tb.ID, Name: tb.Name, RowBytes: tb.RowBytes, Rows: tb.Rows})
	}
	d := NewDeployment(cfg)
	defer d.Close()
	d.Start(workload.NewMix(workload.MixConfig{Warehouses: warehouses, Weights: workload.StandardMix(),
		RemotePct: 0.15, RemoteItemPct: 0.01, Sizing: z, Seed: 9}, d.Part))
	for range 6 {
		d.Run(0, 2*sim.Millisecond)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := d.Run(0, 8*sim.Millisecond)
	runtime.ReadMemStats(&after)
	if m.Committed < 500 {
		t.Fatalf("measured window committed %d transactions, want >= 500", m.Committed)
	}
	perCommit := float64(after.Mallocs-before.Mallocs) / float64(m.Committed)
	t.Logf("%d commits, %.3f heap objects per commit", m.Committed, perCommit)
	if perCommit > steadyAllocBound {
		t.Errorf("steady window allocates %.3f heap objects per commit, want <= %.2f", perCommit, steadyAllocBound)
	}
}
