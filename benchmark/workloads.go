package main

import (
	"fmt"

	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/harness"
	"islands/internal/ipc"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// Workload names are final: later issues cite them.
const (
	wlFineLocalRead = "fine_local_read"
	wlScale64       = "scale64_2pc_update"
	wlTPCC          = "tpcc_islands_mix"
	wlSweep         = "study_sweep_store"
)

// workloadNames lists the workloads in report order; BENCHMARK.json
// carries the same list with each one's reason.
var workloadNames = []string{wlFineLocalRead, wlScale64, wlTPCC, wlSweep}

// sizing fixes the unit of work one repetition does. The full sizing is
// the benchmark; it is never tuned per commit, because a repetition's cost
// is only comparable across commits while its work is the same. The smoke
// sizing exists so the package's tests finish in seconds.
type sizing struct {
	Name        string `json:"name"`
	WarmupUS    int64  `json:"warmup_us"`       // simulated, before every timed window
	FineUS      int64  `json:"fine_window_us"`  // simulated window of fine_local_read
	ScaleUS     int64  `json:"scale_window_us"` // ... of scale64_2pc_update
	TPCCUS      int64  `json:"tpcc_window_us"`  // ... of tpcc_islands_mix
	MicroRows   int64  `json:"micro_rows"`      // microbenchmark dataset (250 B rows)
	TPCCDivisor int64  `json:"tpcc_divisor"`    // SpecSizing().Scaled(divisor)
	ProbeDiv    int    `json:"probe_divisor"`   // per-layer probe loops shrink by this
	ProbeRounds int    `json:"probe_rounds"`    // a probe reports the median of this many rounds
}

var (
	fullSizing = sizing{Name: "full", WarmupUS: 500, FineUS: 8000, ScaleUS: 4000, TPCCUS: 10000,
		MicroRows: 240000, TPCCDivisor: 10, ProbeDiv: 1, ProbeRounds: 5}
	smokeSizing = sizing{Name: "smoke", WarmupUS: 500, FineUS: 500, ScaleUS: 500, TPCCUS: 500,
		MicroRows: 24000, TPCCDivisor: 100, ProbeDiv: 100, ProbeRounds: 1}
)

func (z sizing) warmup() sim.Time { return sim.Time(z.WarmupUS) * sim.Microsecond }

// cellSpec is one deployment cell: everything a repetition builds.
type cellSpec struct {
	window sim.Time
	// config returns a fresh config on a fresh machine model: repetitions
	// share nothing, exactly like cells of a study.
	config func(seed int64) core.Config
	source func(seed int64, d *core.Deployment) engine.RequestSource
}

// cellSpecs returns the three cell workloads at the given sizing. The seed
// feeds cfg.Seed, seed+1 the micro generator and seed+2 the TPC-C mix — the
// same derivation the study harness applies to its cells.
func cellSpecs(z sizing) map[string]cellSpec {
	micro := func(mc workload.MicroConfig) func(int64, *core.Deployment) engine.RequestSource {
		return func(seed int64, d *core.Deployment) engine.RequestSource {
			mc.Table, mc.GlobalRows, mc.Seed = 1, z.MicroRows, seed+1
			return workload.NewMicro(mc, d.Part)
		}
	}
	tpccSizing := workload.SpecSizing().Scaled(z.TPCCDivisor)
	const warehouses = 24
	return map[string]cellSpec{
		// 24 single-core islands, read-only, perfectly partitionable: the
		// H-Store fast path, with locking, latching, IPC, WAL and 2PC off.
		wlFineLocalRead: {
			window: sim.Time(z.FineUS) * sim.Microsecond,
			config: func(seed int64) core.Config {
				cfg := core.DefaultConfig(topology.QuadSocket(), 24, z.MicroRows)
				cfg.LocalOnly = true
				cfg.Seed = seed
				return cfg
			},
			source: micro(workload.MicroConfig{RowsPerTxn: 10}),
		},
		// The ShardedScaling machine: 16 sockets x 4 cores fully connected,
		// one island per socket, updates with one transaction in five
		// distributed — every layer the fast path turns off is on.
		wlScale64: {
			window: sim.Time(z.ScaleUS) * sim.Microsecond,
			config: func(seed int64) core.Config {
				m := harness.Geometry{Sockets: 16, CoresPerSocket: 4}.Machine()
				cfg := core.DefaultConfig(m, 16, z.MicroRows)
				cfg.Seed = seed
				return cfg
			},
			source: micro(workload.MicroConfig{RowsPerTxn: 10, Write: true, PctMultisite: 0.2}),
		},
		// Four islands of six workers running the full TPC-C mix over nine
		// tables at the specification's remote probabilities.
		wlTPCC: {
			window: sim.Time(z.TPCCUS) * sim.Microsecond,
			config: func(seed int64) core.Config {
				cfg := core.Config{Machine: topology.QuadSocket(), Instances: 4,
					Placement: core.PlacementIslands, Mechanism: ipc.UnixSocket, Seed: seed}
				for _, t := range workload.MixTableSet(warehouses, workload.StandardMix(), tpccSizing) {
					cfg.Tables = append(cfg.Tables, core.TableDecl{ID: t.ID, Name: t.Name, RowBytes: t.RowBytes, Rows: t.Rows})
				}
				return cfg
			},
			source: func(seed int64, d *core.Deployment) engine.RequestSource {
				return workload.NewMix(workload.MixConfig{Warehouses: warehouses, Weights: workload.StandardMix(),
					RemotePct: 0.15, RemoteItemPct: 0.01, Sizing: tpccSizing, Seed: seed + 2}, d.Part)
			},
		},
	}
}

// sweepStudy is the benchmark-owned study of study_sweep_store: six quick
// microbenchmark cells on the quad-socket machine, {24, 4, 1} islands x
// {read-10 local, update-10 at 20 % multisite}. It includes the
// shared-everything single-island cells no cell workload runs.
func sweepStudy(z sizing) *harness.Study {
	islands := []int{24, 4, 1}
	kinds := []struct {
		name string
		mc   workload.MicroConfig
	}{
		{"read-10-local", workload.MicroConfig{RowsPerTxn: 10}},
		{"update-10-20pct", workload.MicroConfig{RowsPerTxn: 10, Write: true, PctMultisite: 0.2}},
	}
	rows := make([]string, len(islands))
	for i, n := range islands {
		rows[i] = fmt.Sprintf("%dISL", n)
	}
	cols := make([]string, len(kinds))
	for j, k := range kinds {
		cols[j] = k.name
	}
	s := &harness.Study{ID: "benchmark-sweep", Title: "benchmark sweep", Ref: "benchmark/",
		Tables: []*harness.Table{harness.NewTable("throughput", "KTps", "config", rows, "workload", cols)}}
	for i, n := range islands {
		for j, k := range kinds {
			s.Cells = append(s.Cells, harness.MicroCell(
				fmt.Sprintf("benchmark-sweep/%s/%s", rows[i], k.name), harness.MicroSpec{
					Machine: topology.QuadSocket, Instances: n, Rows: z.MicroRows,
					MC: k.mc, LocalOnly: k.mc.PctMultisite == 0,
				}, harness.TPSEmit(0, i, j)))
		}
	}
	return s
}
