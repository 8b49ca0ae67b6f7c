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

// closeCell builds, runs and closes one small update cell and returns every
// simulated number the run produced plus the storage counters, read before
// Close.
func closeCell(seed int64) string {
	cfg := DefaultConfig(topology.QuadSocket(), 4, 24000)
	cfg.Seed = seed
	cfg.BufferPoolPagesTotal = 256 // evictions: recycled buffers and retained images
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
// on several goroutines at once take their page chunks from one pool and
// hand them to each other; none may see another's bytes (every digest equals
// the sequential run's), and under -race the pool hand-off must be ordered.
func TestConcurrentDeploymentsShareThePool(t *testing.T) {
	const cells, rounds = 4, 3
	want := make([]string, cells)
	for i := range want {
		want[i] = closeCell(int64(100 + i))
	}
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got := closeCell(int64(100 + i)); got != want[i] {
					t.Errorf("cell %d round %d diverged from its sequential run:\n got  %s\n want %s", i, r, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestStorageUseAfterClosePanics: Close hands the page memory to the next
// deployment, so a late read must fail loudly instead of seeing its bytes.
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
