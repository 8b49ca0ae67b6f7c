package core

import (
	"runtime"
	"testing"

	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// localOnlyLifeAllocBound is the most heap objects
// TestLocalOnlyLifeAllocations lets a 24-island LocalOnly deployment allocate
// from build to close. It measured 1,793–1,798 when set (1,835–1,850 under
// -race; Go 1.24, 2 vCPUs); with a 2PC service and a control thread per core,
// spawned to park on mailboxes nothing could send to, it measured
// 2,685–2,725.
const localOnlyLifeAllocBound = 2000

// threadsRows is the table size of the deployments below: small, since only
// their threads are counted.
const threadsRows = 24000

// startMicro builds cfg's deployment, starts it on a local read-10 micro
// workload and warms it up for 500 µs.
func startMicro(cfg Config) *Deployment {
	d := NewDeployment(cfg)
	d.Start(workload.NewMicro(workload.MicroConfig{Table: 1, GlobalRows: threadsRows, RowsPerTxn: 10, Seed: 1}, d.Part))
	d.Kernel.RunFor(500 * sim.Microsecond)
	return d
}

// TestThreadsOnlyWhereMessagesArrive: an instance spawns a 2PC service and a
// control thread per core only if it has a peer to send to them. Islands
// built LocalOnly, and a lone instance even when connected, run their
// workers alone; connected islands run all three threads per core.
func TestThreadsOnlyWhereMessagesArrive(t *testing.T) {
	for _, c := range []struct {
		name      string
		instances int
		localOnly bool
		want      int
	}{
		{"24 LocalOnly islands of one core", 24, true, 24},
		{"one connected 24-core instance", 1, false, 24},
		{"4 connected islands of 6 cores", 4, false, 72},
	} {
		cfg := DefaultConfig(topology.QuadSocket(), c.instances, threadsRows)
		cfg.LocalOnly = c.localOnly
		d := startMicro(cfg)
		if got := d.Kernel.LiveProcs(); got != c.want {
			t.Errorf("%s: %d live threads after warm-up, want %d", c.name, got, c.want)
		}
		d.Close()
	}
}

// TestLocalOnlyLifeAllocations builds, starts, warms up for 500 µs and closes
// the benchmark's control deployment, 24 LocalOnly islands, and counts the
// heap objects that allocates.
func TestLocalOnlyLifeAllocations(t *testing.T) {
	cfg := DefaultConfig(topology.QuadSocket(), 24, threadsRows)
	cfg.LocalOnly = true
	// The first life fills the process's free list of Page-struct slabs;
	// count the second.
	startMicro(cfg).Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startMicro(cfg).Close()
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	t.Logf("build, start, 500 µs warm-up and close allocate %d objects", got)
	if got > localOnlyLifeAllocBound {
		t.Errorf("build, start, 500 µs warm-up and close allocate %d objects, want <= %d", got, localOnlyLifeAllocBound)
	}
}
