package core

import (
	"fmt"
	"sync"
	"testing"

	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/topology"
	"islands/internal/workload"
)

// closeCell builds, runs and closes one small update cell on the given
// number of kernel workers and returns every simulated number the run
// produced plus the storage counters, read before Close.
func closeCell(seed int64, shards int) string {
	cfg := DefaultConfig(topology.QuadSocket(), 4, 24000)
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.BufferPoolPagesTotal = 256 // evictions: reused Page structs and retained arrays
	d := NewDeployment(cfg)
	defer d.Close()
	d.Start(workload.NewMicro(workload.MicroConfig{
		Table: 1, GlobalRows: 24000, RowsPerTxn: 4, Write: true, PctMultisite: 0.2, Seed: seed + 1,
	}, d.Part))
	m := d.Run(200*sim.Microsecond, 2*sim.Millisecond)
	out := fmt.Sprintf("%d/%d/%d/%d/%v/%v/%d", m.Committed, m.Aborted, m.Local, m.Multisite, m.TxnTime, m.Breakdown, d.Kernel.Events())
	for _, in := range d.Instances {
		bp := in.BufferPool()
		out += fmt.Sprintf(" %d:%d:%d:%d:%d", bp.Hits, bp.Misses, bp.Evictions, bp.DirtyWriteBacks, in.SumRowVersions())
	}
	return out
}

// TestConcurrentDeploymentsShareThePool: deployments built, run and closed
// on several goroutines at once hand their buffer pools' Page-struct slabs
// to each other through one free list, and share nothing else of their
// storage; none may see another's pages (every digest equals the sequential
// inline run's), and under -race the hand-off must be ordered. Odd rounds
// run on four kernel workers, so the free list also serves deployments
// whose windows run on helper goroutines.
func TestConcurrentDeploymentsShareThePool(t *testing.T) {
	const cells, rounds = 4, 3
	want := make([]string, cells)
	for i := range want {
		want[i] = closeCell(int64(100+i), 0)
	}
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got := closeCell(int64(100+i), 4*(r%2)); got != want[i] {
					t.Errorf("cell %d round %d diverged from its sequential run:\n got  %s\n want %s", i, r, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestStorageUseAfterClosePanics: Close hands the Page structs to the next
// deployment, so a late read must fail loudly instead of seeing them.
func TestStorageUseAfterClosePanics(t *testing.T) {
	d := NewDeployment(DefaultConfig(topology.QuadSocket(), 2, 2400))
	d.Start(workload.NewMicro(workload.MicroConfig{Table: 1, GlobalRows: 2400, RowsPerTxn: 2, Write: true, Seed: 1}, d.Part))
	d.Run(0, 500*sim.Microsecond)
	in := d.Instances[0]
	if in.SumRowVersions() == 0 {
		t.Fatal("setup: no row was updated")
	}
	d.Close()
	d.Close() // idempotent

	for name, use := range map[string]func(){
		"SumRowVersions": func() { in.SumRowVersions() },
		"BufferPool":     func() { in.BufferPool().Peek(storage.PageID{Table: 1, No: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			use()
		}()
	}
}
