package core

import (
	"runtime"
	"testing"

	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// The bounds of TestFirstWindowAllocations, which hold with and without
// -race (Go 1.24, 2 vCPUs). When they were set, the window allocated 0.357
// heap objects per commit (0.365 under -race), and the life from build to
// close 6,485–6,546 objects (6,646–6,711 under -race). With engine and
// kernel buffers doubling up from nothing, the window read 1.357–1.361
// (1.444–1.450) and the life 10,140–10,199 (10,690–10,711).
const (
	firstWindowAllocBound   = 0.45
	multisiteLifeAllocBound = 7250
)

// startMultisite builds the benchmark's distributed cell on threadsRows
// rows — 16 fully connected islands of one 4-core socket each, update-10 at
// 20 % multisite — starts it and warms it up for 500 µs.
func startMultisite() *Deployment {
	cfg := DefaultConfig(topology.Custom("16s4c", 16, 4, 12<<20), 16, threadsRows)
	cfg.Seed = 42
	d := NewDeployment(cfg)
	d.Start(workload.NewMicro(workload.MicroConfig{Table: 1, GlobalRows: threadsRows, RowsPerTxn: 10,
		Write: true, PctMultisite: 0.2, Seed: 43}, d.Part))
	d.Kernel.RunFor(500 * sim.Microsecond)
	return d
}

// firstWindow measures the 4 ms window of a freshly warmed startMultisite
// deployment: its commits and the heap objects it allocates.
func firstWindow(d *Deployment) (commits, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := d.Run(0, 4*sim.Millisecond)
	runtime.ReadMemStats(&after)
	return m.Committed, after.Mallocs - before.Mallocs
}

// TestFirstWindowAllocations measures the window the benchmark times on a
// fresh distributed deployment, 500 µs after its start. Every engine and
// kernel buffer on the 2PC path starts at its bound, so the window does
// not pay for buffers doubling up to it; and the whole life, from build
// to close, must not have moved those allocations into set-up.
func TestFirstWindowAllocations(t *testing.T) {
	// The first life fills the process's free list of Page-struct slabs.
	d := startMultisite()
	firstWindow(d)
	d.Close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d = startMultisite()
	commits, mallocs := firstWindow(d)
	d.Close()
	runtime.ReadMemStats(&after)
	if commits < 1000 {
		t.Fatalf("the window committed %d transactions, want >= 1000", commits)
	}
	perCommit := float64(mallocs) / float64(commits)
	life := after.Mallocs - before.Mallocs
	t.Logf("%d commits, %.3f heap objects per commit; %d objects from build to close", commits, perCommit, life)
	if perCommit > firstWindowAllocBound {
		t.Errorf("the first window allocates %.3f heap objects per commit, want <= %.2f", perCommit, firstWindowAllocBound)
	}
	if life > multisiteLifeAllocBound {
		t.Errorf("build, warm-up, window and close allocate %d heap objects, want <= %d", life, multisiteLifeAllocBound)
	}
}

// BenchmarkMultisiteFirstWindow times the first 4 ms window of fresh
// startMultisite deployments, as the benchmark times its distributed cell,
// and reports the heap objects each window allocates per commit
// (allocs/commit). Building, warming up and closing are not timed.
func BenchmarkMultisiteFirstWindow(b *testing.B) {
	startMultisite().Close() // fills the free list of Page-struct slabs
	var commits, mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := startMultisite()
		b.StartTimer()
		c, m := firstWindow(d)
		b.StopTimer()
		d.Close()
		commits, mallocs = commits+c, mallocs+m
	}
	b.ReportMetric(float64(mallocs)/float64(commits), "allocs/commit")
}
