package harness

import (
	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/resultstore"
	"islands/internal/topology"
	"islands/internal/workload"
)

// The plan layer turns each experiment from an imperative nested loop into
// declarative data: a Study (study.go) is a named set of Cells plus the
// (still empty) tables they fill; each Cell is one fully self-contained
// simulation — it constructs its own machine model, kernel, deployment,
// workload generator and RNGs from the cell spec and the run's seed — and
// carries the table coordinates its metrics land in. Because cells share
// no mutable state, the executor (Study.Run, executor.go) may run them in
// any order, or concurrently, and assemble an identical Result every time.

// Metrics is what one cell's simulation produced. Deployment cells fill M;
// cells that measure a scalar outside a deployment (the Section 3 counter
// benchmarks, the Figure 6 ping-pong rates) fill Value.
type Metrics struct {
	M     core.Measurement
	Value float64
	// Series holds the per-window measurements of fault-injection cells
	// (Deployment.RunWindows); nil for single-window cells. M then carries
	// the whole-run aggregate.
	Series []core.Measurement
}

// Emit wires one value of a cell's metrics to one table cell of the study's
// result: Tables[Table].Values[Row][Col] = Metric(metrics).
type Emit struct {
	Table int
	Row   int
	Col   int
	// Metric projects the measurement onto the table cell's value. It must
	// be pure: emits are applied in cell declaration order after all cells
	// finish, regardless of completion order.
	Metric func(Metrics) float64
}

// Cell is one independent unit of an experiment grid: machine + config
// tweaks + workload + seed, with the output coordinates it feeds.
type Cell struct {
	// Name identifies the cell in progress reports, e.g. "fig12/update/FG/24".
	Name string
	// CostHint ranks the cell's expected wall-clock against its study
	// siblings (0 = typical). The parallel executor dispatches
	// higher-hinted cells first, so known-long cells — fig14's disk-bound
	// points, fig3's forced-full windows — do not start last and stretch
	// the critical path at high worker counts. Results are hint-independent:
	// metrics are stored by cell index and emits apply in declaration order.
	CostHint float64
	// Run simulates the cell under the given options. Implementations must
	// build every piece of state they touch (the executor may invoke cells
	// of one study concurrently from multiple goroutines).
	Run func(opt Options) Metrics
	// Key, when non-nil, writes the cell's semantic identity — everything
	// Run's simulation consumes — into the hasher, for the persistent
	// result store (Options.Store). It must apply the same option
	// transforms Run applies (seed deltas, forced-full mode) and hash the
	// same configs Run builds, so two cells with equal keys are guaranteed
	// to produce bit-identical Metrics. Cells with a nil Key still cache,
	// under a positional key over (study ID, cell name, options) — sound for
	// cells whose behavior is a pure function of the code, which the code
	// fingerprint in every key covers.
	Key func(opt Options, h *resultstore.Hasher)
	// Emits maps the cell's metrics onto result tables.
	Emits []Emit
}

// TPSEmit emits throughput in KTps — the most common table value.
func TPSEmit(table, row, col int) Emit {
	return Emit{table, row, col, func(x Metrics) float64 { return x.M.ThroughputTPS / 1e3 }}
}

// ValueEmit emits the cell's scalar value verbatim.
func ValueEmit(table, row, col int) Emit {
	return Emit{table, row, col, func(x Metrics) float64 { return x.Value }}
}

// MicroSpec declares a microbenchmark deployment cell: which machine to
// model, how many instances to deploy over it, the dataset and workload
// mix, and how the cell perturbs the run's base seed.
type MicroSpec struct {
	// Machine constructs the cell's private machine model (cells must not
	// share a *topology.Machine: some experiments scale LLC sizes or
	// restrict active cores per cell).
	Machine   func() *topology.Machine
	Instances int
	Rows      int64
	MC        workload.MicroConfig
	LocalOnly bool
	// SeedDelta is added to opt.Seed for this cell (seed-replica cells).
	SeedDelta int64
	// ForceFull measures with the full (non-quick) window even in quick
	// mode, for cells whose effect sits near the quick window's
	// quantization noise (the fabric experiment's hop penalty, like
	// fig3's placement gap on the TPC-C side).
	ForceFull bool
	// Tweak optionally adjusts the built config (active cores, disk, ...).
	Tweak func(*core.Config)
}

// MicroCell builds a standard microbenchmark cell from its spec. ForceFull
// cells run the long window even in quick mode, so they carry a cost hint
// for the scheduler.
func MicroCell(name string, s MicroSpec, emits ...Emit) Cell {
	var hint float64
	if s.ForceFull {
		hint = 1
	}
	return Cell{Name: name, CostHint: hint, Emits: emits,
		Run: func(opt Options) Metrics {
			opt.Seed += s.SeedDelta
			if s.ForceFull {
				opt.Quick = false
			}
			return Metrics{M: runMicro(s.Machine(), s.Instances, s.Rows, s.MC, s.LocalOnly, opt, s.Tweak)}
		},
		Key: func(opt Options, h *resultstore.Hasher) {
			opt.Seed += s.SeedDelta
			if s.ForceFull {
				opt.Quick = false
			}
			h.Str("micro")
			cfg, mc := microConfig(s.Machine(), s.Instances, s.Rows, s.MC, s.LocalOnly, opt, s.Tweak)
			keyConfig(h, cfg)
			h.Value(mc)
			keyOptions(h, opt)
		}}
}

// TPCCSpec declares a TPC-C deployment cell. Mix selects the transaction
// blend: the historical Payment-only experiments are one point in the mix
// space (workload.PaymentOnly), the full standard mix another
// (workload.StandardMix).
type TPCCSpec struct {
	Machine    func() *topology.Machine
	Instances  int
	Warehouses int
	// Mix weights the five TPC-C transactions (required).
	Mix workload.MixWeights
	// RemotePct is Payment's remote-customer probability; RemoteItemPct is
	// NewOrder's per-line remote-supplier probability.
	RemotePct     float64
	RemoteItemPct float64
	// Sizing scales table cardinalities; zero value = specification sizes.
	Sizing    workload.Sizing
	LocalOnly bool
	SeedDelta int64
	// ForceFull measures with the full (non-quick) window even in quick
	// mode: Figure 3's placement gap needs the long window to clear noise.
	ForceFull bool
	// Placement, when non-nil, derives explicit worker core lists from the
	// cell's machine and seed-adjusted options (thread-placement cells);
	// nil uses the default islands placement.
	Placement func(m *topology.Machine, opt Options) [][]topology.CoreID
}

// TPCCCell builds a TPC-C cell from its spec. ForceFull cells run the long
// window even in quick mode, so they carry a cost hint for the scheduler.
func TPCCCell(name string, s TPCCSpec, emits ...Emit) Cell {
	var hint float64
	if s.ForceFull {
		hint = 1
	}
	return Cell{Name: name, CostHint: hint, Emits: emits,
		Run: func(opt Options) Metrics {
			opt.Seed += s.SeedDelta
			if s.ForceFull {
				opt.Quick = false
			}
			m := s.Machine()
			var cores [][]topology.CoreID
			if s.Placement != nil {
				cores = s.Placement(m, opt)
			}
			return Metrics{M: runTPCC(m, s, opt, cores)}
		},
		Key: func(opt Options, h *resultstore.Hasher) {
			opt.Seed += s.SeedDelta
			if s.ForceFull {
				opt.Quick = false
			}
			m := s.Machine()
			var cores [][]topology.CoreID
			if s.Placement != nil {
				cores = s.Placement(m, opt)
			}
			h.Str("tpcc")
			cfg, mix := tpccConfig(m, s, opt, cores)
			keyConfig(h, cfg)
			h.Value(mix)
			keyOptions(h, opt)
		}}
}

// SourceSpec declares a deployment cell driven by a user-defined request
// source — the open end of the cell-spec family. Where MicroSpec and
// TPCCSpec bake in this repo's generators, SourceSpec takes an arbitrary
// factory: trace replayers, custom closed-loop clients, adversarial
// streams. The factory runs once per cell execution against the freshly
// built deployment (for d.Part, instance layout, config), and must return
// a source safe for concurrent workers — the executor may run cells of one
// study concurrently, and the engine calls Next from every worker stream.
type SourceSpec struct {
	// Machine constructs the cell's private machine model.
	Machine   func() *topology.Machine
	Instances int
	// Tables declares the deployment's tables (range-partitioned).
	Tables []core.TableDecl
	// Source builds the request source for this cell's deployment. opt has
	// the cell's seed adjustments already applied.
	Source    func(d *core.Deployment, opt Options) engine.RequestSource
	LocalOnly bool
	SeedDelta int64
	// ForceFull measures with the full (non-quick) window even in quick mode.
	ForceFull bool
	// Tweak optionally adjusts the built config (think time, WAL, disk, ...).
	Tweak func(*core.Config)
	// Key, when non-nil, hashes the Source factory's semantic identity (for
	// a trace replayer: the trace content and rotation) into the cell's
	// result-store key. The deployment config, options and seed are hashed
	// by the cell around it; Key only needs to cover what the factory
	// closure captures. A nil Key leaves the cell on the positional
	// fallback, sound only for sources fully determined by the study's
	// identity and options.
	Key func(opt Options, h *resultstore.Hasher)
}

// SourceCell builds a deployment cell around a user-defined request source.
func SourceCell(name string, s SourceSpec, emits ...Emit) Cell {
	var hint float64
	if s.ForceFull {
		hint = 1
	}
	c := Cell{Name: name, CostHint: hint, Emits: emits, Run: func(opt Options) Metrics {
		opt.Seed += s.SeedDelta
		if s.ForceFull {
			opt.Quick = false
		}
		return Metrics{M: runSource(s, opt)}
	}}
	if s.Key != nil {
		c.Key = func(opt Options, h *resultstore.Hasher) {
			opt.Seed += s.SeedDelta
			if s.ForceFull {
				opt.Quick = false
			}
			h.Str("source")
			keyConfig(h, sourceConfig(s, opt))
			s.Key(opt, h)
			keyOptions(h, opt)
		}
	}
	return c
}

// ScalarCell builds a cell around a custom measurement returning one value
// (counter benchmarks, ping-pong rates). run must construct all state it
// touches.
func ScalarCell(name string, run func(opt Options) float64, emits ...Emit) Cell {
	return Cell{Name: name, Emits: emits, Run: func(opt Options) Metrics {
		return Metrics{Value: run(opt)}
	}}
}
