package core

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"islands/internal/engine"
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
// and with 2 and 4 workers: every field of every window's Measurement
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
		for _, shards := range []int{0, 2, 4} {
			if got := run(NewDeployment, shards); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Shards=%d diverges from the single-partition kernel:\n got %+v\nwant %+v",
					name, shards, got, want)
			}
		}
	}
}

// localOnlyCell builds n islands of the quad-socket machine under
// Config.LocalOnly and starts the micro workload mc on them.
func localOnlyCell(build func(Config) *Deployment, n, shards int, mc workload.MicroConfig, plan *fault.Plan) *Deployment {
	cfg := DefaultConfig(topology.QuadSocket(), n, 24000)
	cfg.LocalOnly = true
	cfg.Seed = 5
	cfg.Shards = shards
	cfg.Faults = plan
	d := build(cfg)
	mc.Table, mc.GlobalRows, mc.Seed = 1, 24000, 6
	d.Start(workload.NewMicro(mc, d.Part))
	return d
}

// TestLocalOnlyIslandsShareNoChannel pins the kernel wiring of a LocalOnly
// deployment: no island pair has a lookahead channel (every other
// deployment declares one for every pair), so nothing bounds an island's
// window but the run itself — Windows rises by exactly one per RunUntil that
// found work, however long the run.
func TestLocalOnlyIslandsShareNoChannel(t *testing.T) {
	for _, local := range []bool{true, false} {
		cfg := DefaultConfig(topology.QuadSocket(), 24, 24000)
		cfg.LocalOnly = local
		d := NewDeployment(cfg)
		for i := 0; i < 24; i++ {
			for j := 0; j < 24; j++ {
				if la := d.Kernel.LookaheadTo(i, j); i != j && (la == 0) != local {
					t.Fatalf("LocalOnly=%v: LookaheadTo(%d, %d) = %v", local, i, j, la)
				}
			}
		}
		d.Close()
	}

	d := localOnlyCell(NewDeployment, 24, 0, workload.MicroConfig{RowsPerTxn: 10}, nil)
	defer d.Close()
	for _, dur := range []sim.Time{10 * sim.Microsecond, sim.Millisecond, 3 * sim.Millisecond} {
		before := d.Kernel.Windows()
		d.Kernel.RunFor(dur)
		if got := d.Kernel.Windows() - before; got != 1 {
			t.Errorf("RunFor(%v) took %d windows, want 1", dur, got)
		}
	}
	before := d.Kernel.Windows()
	d.Kernel.RunUntil(d.Kernel.Now()) // every event up to now has run already
	if got := d.Kernel.Windows() - before; got != 0 {
		t.Errorf("a RunUntil that found no work took %d windows, want 0", got)
	}
}

// TestLocalOnlyMatchesSinglePartition is TestPartitionedMatchesSinglePartition
// for deployments whose islands run unsynchronized: the single-window runs of
// the default kernel and of four kernel workers must agree with the one-heap
// reference on every window's Measurement, the kernel's event count and every
// instance's counters — on the serial fast path, on multi-worker islands and
// across a crash and recovery of a serial island.
func TestLocalOnlyMatchesSinglePartition(t *testing.T) {
	cases := []struct {
		name    string
		islands int
		mc      workload.MicroConfig
		plan    *fault.Plan
	}{
		{"24x1 read-10", 24, workload.MicroConfig{RowsPerTxn: 10}, nil},
		{"4x6 read-10", 4, workload.MicroConfig{RowsPerTxn: 10}, nil},
		{"24x1 update-10 crash", 24, workload.MicroConfig{RowsPerTxn: 10, Write: true}, &fault.Plan{Events: []fault.Event{
			fault.IslandCrash{At: 600 * sim.Microsecond, Island: 0, DownFor: 500 * sim.Microsecond},
		}}},
	}
	type result struct {
		series []Measurement
		events uint64
		stats  []engine.Stats
	}
	for _, c := range cases {
		run := func(build func(Config) *Deployment, shards int) result {
			d := localOnlyCell(build, c.islands, shards, c.mc, c.plan)
			defer d.Close()
			r := result{series: d.RunWindows(300*sim.Microsecond, 500*sim.Microsecond, 4), events: d.Kernel.Events()}
			for _, in := range d.Instances {
				r.stats = append(r.stats, in.Stats)
			}
			return r
		}
		want := run(NewSinglePartitionDeployment, 0)
		if last := want.series[len(want.series)-1]; last.Committed == 0 || last.Multisite != 0 {
			t.Fatalf("%s: baseline committed %d transactions, %d multisite", c.name, last.Committed, last.Multisite)
		}
		if c.plan != nil && want.stats[0].Crashes != 1 {
			t.Fatalf("%s: island 0 crashed %d times, want 1", c.name, want.stats[0].Crashes)
		}
		for _, shards := range []int{0, 4} {
			if got := run(NewDeployment, shards); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Shards=%d diverges from the single-partition kernel:\n got %+v\nwant %+v",
					c.name, shards, got, want)
			}
		}
	}
}

// TestMultisiteOnLocalOnlyPanics pins the contract of Config.LocalOnly: a
// workload that issues a multisite request after all does not run on
// lock-free islands silently, and does not trip the kernel's wiring check
// either — Run panics with a message that names the field and the two
// instances, on one partition, on many, and through kernel workers.
func TestMultisiteOnLocalOnlyPanics(t *testing.T) {
	sites := regexp.MustCompile(`instance \d+ got a request with work for instance \d+`)
	builds := map[string]func(Config) *Deployment{
		"partitioned": NewDeployment, "single partition": NewSinglePartitionDeployment,
	}
	for name, build := range builds {
		for _, shards := range []int{0, 4} {
			d := localOnlyCell(build, 24, shards, workload.MicroConfig{RowsPerTxn: 10, PctMultisite: 0.2}, nil)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				d.Run(0, sim.Millisecond)
				return
			}()
			d.Close()
			if !strings.Contains(msg, "Config.LocalOnly") || !sites.MatchString(msg) {
				t.Errorf("%s, Shards=%d: Run panicked with %q, want Config.LocalOnly and both instances named",
					name, shards, msg)
			}
		}
	}
}

// BenchmarkLocalOnlyWindow runs one 1 ms window of the benchmark's control
// cell — 24 single-core LocalOnly islands, local read-10 — per iteration, on
// a prewarmed pool: the whole window is one kernel window, and it allocates
// nothing.
func BenchmarkLocalOnlyWindow(b *testing.B) {
	cfg := DefaultConfig(topology.QuadSocket(), 24, 240000)
	cfg.LocalOnly = true
	cfg.Prewarm = true
	d := NewDeployment(cfg)
	defer d.Close()
	d.Start(workload.NewMicro(workload.MicroConfig{Table: 1, GlobalRows: 240000, RowsPerTxn: 10, Seed: 1}, d.Part))
	d.Kernel.RunFor(sim.Millisecond)
	windows := d.Kernel.Windows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Kernel.RunFor(sim.Millisecond)
	}
	b.StopTimer()
	if got := d.Kernel.Windows() - windows; got != uint64(b.N) {
		b.Fatalf("%d runs took %d kernel windows, want one each", b.N, got)
	}
}

// TestColdLocalOnlyReadsMakeNoPageStruct: the paper's fine-grained islands
// never latch, so a cold read-only LocalOnly deployment reads every row
// through its page's frame: after a window its pools hold resident pages
// and not one Page struct, and SumRowVersions over them reads 0, makes no
// struct and allocates nothing.
func TestColdLocalOnlyReadsMakeNoPageStruct(t *testing.T) {
	cfg := DefaultConfig(topology.QuadSocket(), 24, 24000)
	cfg.LocalOnly = true
	d := NewDeployment(cfg)
	defer d.Close()
	d.Start(workload.NewMicro(workload.MicroConfig{Table: 1, GlobalRows: 24000, RowsPerTxn: 10, Seed: 1}, d.Part))
	d.Kernel.RunFor(sim.Millisecond)
	structs := func() (resident, structs int) {
		for _, in := range d.Instances {
			resident += in.BufferPool().Resident()
			structs += in.BufferPool().PageStructs()
		}
		return resident, structs
	}
	if resident, n := structs(); resident == 0 || n != 0 {
		t.Fatalf("%d resident pages, %d of them with a Page struct; want some and none", resident, n)
	}
	var sum uint64
	allocs := testing.AllocsPerRun(10, func() {
		sum = 0
		for _, in := range d.Instances {
			sum += in.SumRowVersions()
		}
	})
	if _, n := structs(); allocs != 0 || sum != 0 || n != 0 {
		t.Errorf("SumRowVersions read %d, allocated %v objects and left %d Page structs; want 0, 0 and 0", sum, allocs, n)
	}
}
