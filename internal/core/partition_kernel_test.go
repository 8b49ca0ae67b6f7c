package core

import (
	"reflect"
	"runtime"
	"testing"

	"islands/internal/fault"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// TestDefaultKernelIsPartitionedInline pins what Config.Shards' zero value
// means: an eligible deployment gets one event partition per island, run by
// one worker — the caller — so running it adds no goroutine to those Start
// created (the procs, all coroutines). Ineligible deployments stay on a
// single partition.
func TestDefaultKernelIsPartitionedInline(t *testing.T) {
	m := topology.QuadSocket()
	cfg := DefaultConfig(m, 4, 24000)
	d := NewDeployment(cfg)
	defer d.Close()
	if got := d.Kernel.Shards(); got != 4 {
		t.Fatalf("4 islands run on %d event partitions, want 4", got)
	}
	if forcedShards() == 0 {
		if got := d.Kernel.Workers(); got != 1 {
			t.Fatalf("default deployment has %d kernel workers, want 1 (inline)", got)
		}
		d.Start(workload.NewMicro(workload.MicroConfig{
			Table: 1, GlobalRows: 24000, RowsPerTxn: 4, Write: true, PctMultisite: 0.2, Seed: 1,
		}, d.Part))
		before := runtime.NumGoroutine()
		if res := d.Run(0, sim.Millisecond); res.Multisite == 0 {
			t.Fatal("no multisite transaction committed: cross-partition delivery untested")
		}
		if d.Kernel.Windows() < 2 {
			t.Errorf("Windows() = %d, want a windowed run", d.Kernel.Windows())
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("default Run started goroutines: %d before, %d after", before, after)
		}
	}

	ineligible := map[string]func(*Config){
		"one island":   func(c *Config) { c.Instances = 1 },
		"shared HDD":   func(c *Config) { c.Disk = DiskHDD },
		"shared cores": func(c *Config) { c.InstanceCores = [][]topology.CoreID{{0, 1}, {1, 2}} },
	}
	for name, tweak := range ineligible {
		cfg := DefaultConfig(m, 4, 24000)
		cfg.Shards = 4
		tweak(&cfg)
		d := NewDeployment(cfg)
		if got := d.Kernel.Shards(); got != 1 {
			t.Errorf("%s: %d event partitions, want 1", name, got)
		}
		d.Close()
	}
}

// TestPartitionedMatchesSinglePartition compares the default kernel against
// the explicit classic baseline — NewSinglePartitionDeployment, every island
// on one heap — on a contended 2PC workload and under a fault plan, inline
// and with 2, 4 and auto workers: every field of every window's Measurement
// must be identical.
func TestPartitionedMatchesSinglePartition(t *testing.T) {
	cases := map[string]*fault.Plan{
		"healthy": nil,
		"crash+degrade": {Events: []fault.Event{
			fault.IslandCrash{At: 1 * sim.Millisecond, Island: 1, DownFor: 500 * sim.Microsecond},
			fault.LinkDegrade{At: 200 * sim.Microsecond, Dur: sim.Millisecond, From: 0, To: 2, Factor: 0.5},
		}},
	}
	for name, plan := range cases {
		run := func(build func(Config) *Deployment, shards int) []Measurement {
			cfg := DefaultConfig(topology.QuadSocket(), 4, 24000)
			cfg.Seed = 3
			cfg.Shards = shards
			cfg.Faults = plan
			d := build(cfg)
			defer d.Close()
			d.Start(workload.NewMicro(workload.MicroConfig{
				Table: 1, GlobalRows: 24000, RowsPerTxn: 10, Write: true, PctMultisite: 0.3, Seed: 4,
			}, d.Part))
			return d.RunWindows(300*sim.Microsecond, 500*sim.Microsecond, 4)
		}
		want := run(NewSinglePartitionDeployment, 0)
		if want[len(want)-1].Multisite == 0 {
			t.Fatalf("%s: baseline committed no multisite transaction", name)
		}
		for _, shards := range []int{0, 2, 4, -1} {
			if got := run(NewDeployment, shards); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Shards=%d diverges from the single-partition kernel:\n got %+v\nwant %+v",
					name, shards, got, want)
			}
		}
	}
}
