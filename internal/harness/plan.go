package harness

import (
	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/ipc"
	"islands/internal/resultstore"
	"islands/internal/sim"
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
	// result store (Options.Store): two cells with equal keys must produce
	// bit-identical Metrics. Deployment cells get Run and Key from one plan
	// (planCell), which guarantees it. Cells with a nil Key still cache,
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

// multisitePctEmit emits the committed transactions that spanned instances,
// in percent.
func multisitePctEmit(table, row, col int) Emit {
	return Emit{table, row, col, func(x Metrics) float64 {
		total := x.M.Local + x.M.Multisite
		if total == 0 {
			return 0
		}
		return 100 * float64(x.M.Multisite) / float64(total)
	}}
}

// plan is one deployment cell resolved under a run's options — the paper's
// recipe as data: build this deployment, drive it with this source, warm
// up, measure these windows. It is the only description of the cell there
// is: planCell derives both Cell.Run (which executes it) and Cell.Key
// (which hashes it) from the same value, so a result-store key covers
// exactly what ran.
type plan struct {
	tag string  // cell kind, the key's first frame
	opt Options // effective options: the cell's seed delta and forced-full mode applied
	cfg core.Config
	// source builds the request driver against the freshly built deployment.
	source func(d *core.Deployment) engine.RequestSource
	// identity hashes what source consumes beyond cfg and opt: the workload
	// config, a trace digest.
	identity func(h *resultstore.Hasher)

	warmup, window sim.Time
	// series is the window count of a windowed measurement, reported as
	// Metrics.Series with the whole-run sum in M (fault cells); 0 measures
	// one steady-state window into M.
	series int
}

// forCell returns the options a cell's simulation runs under: the run's
// options with the spec's seed delta and forced-full mode applied. Every
// spec's plan method starts here, and nothing else transforms options.
func (o Options) forCell(seedDelta int64, forceFull bool) Options {
	o.Seed += seedDelta
	if forceFull {
		o.Quick = false
	}
	return o
}

// plan assembles a cell's plan under the effective options o: the run's
// seed lands in cfg, then the spec's tweak adjusts it, and the measurement
// defaults to the mode's standard window.
func (o Options) plan(tag string, cfg core.Config, tweak func(*core.Config),
	source func(*core.Deployment) engine.RequestSource, identity func(*resultstore.Hasher)) plan {

	cfg.Seed = o.Seed
	if tweak != nil {
		tweak(&cfg)
	}
	p := plan{tag: tag, opt: o, cfg: cfg, source: source, identity: identity}
	p.warmup, p.window = 2*sim.Millisecond, 20*sim.Millisecond
	if o.Quick {
		p.warmup, p.window = 500*sim.Microsecond, 3*sim.Millisecond
	}
	return p
}

// run executes the plan: deploy, start the source, warm up, measure, close.
func (p plan) run() Metrics {
	d := p.opt.deploy(p.cfg)
	defer d.Close()
	d.Start(p.source(d))
	if p.series == 0 {
		return Metrics{M: d.Run(p.warmup, p.window)}
	}
	series := d.RunWindows(p.warmup, p.window, p.series)
	return Metrics{M: d.SumWindows(series), Series: series}
}

// key hashes the plan: kind, deployment config, source identity, window
// geometry, effective seed and mode.
func (p plan) key(h *resultstore.Hasher) {
	h.Str(p.tag)
	// Deep reflection: machine, tables, placement, WAL, disk, faults, seed —
	// every core.Config field, including any added later.
	h.Value(p.cfg)
	p.identity(h)
	h.I64(int64(p.warmup))
	h.I64(int64(p.window))
	h.I64(int64(p.series))
	keyOptions(h, p.opt)
}

// planCell builds a deployment cell whose Run and Key both come from
// build(opt). forceFull cells run the long window even in quick mode, so
// they carry a cost hint for the scheduler.
func planCell(name string, forceFull bool, build func(Options) plan, emits []Emit) Cell {
	var hint float64
	if forceFull {
		hint = 1
	}
	return Cell{Name: name, CostHint: hint, Emits: emits,
		Run: func(opt Options) Metrics { return build(opt).run() },
		Key: func(opt Options, h *resultstore.Hasher) { build(opt).key(h) }}
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

func (s MicroSpec) plan(opt Options) plan {
	opt = opt.forCell(s.SeedDelta, s.ForceFull)
	mc := s.MC
	mc.Table = 1
	mc.GlobalRows = s.Rows
	mc.Seed = opt.Seed + 1
	cfg := core.DefaultConfig(s.Machine(), s.Instances, s.Rows)
	cfg.LocalOnly = s.LocalOnly
	return opt.plan("micro", cfg, s.Tweak,
		func(d *core.Deployment) engine.RequestSource { return workload.NewMicro(mc, d.Part) },
		func(h *resultstore.Hasher) { h.Value(mc) })
}

// MicroCell builds a standard microbenchmark cell from its spec.
func MicroCell(name string, s MicroSpec, emits ...Emit) Cell {
	return planCell(name, s.ForceFull, s.plan, emits)
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

// plan deploys exactly the tables the mix touches, so Payment-only cells
// build the historical four-table dataset (and the historical request
// stream — the mix generator skips the transaction-selection draw for
// single-kind mixes), keeping their fingerprints byte-identical.
func (s TPCCSpec) plan(opt Options) plan {
	opt = opt.forCell(s.SeedDelta, s.ForceFull)
	cfg := core.Config{
		Machine:   s.Machine(),
		Instances: s.Instances,
		Placement: core.PlacementIslands,
		Mechanism: ipc.UnixSocket,
		LocalOnly: s.LocalOnly,
		Tables:    workload.MixTableSet(s.Warehouses, s.Mix, s.Sizing),
	}
	if s.Placement != nil {
		cfg.InstanceCores = s.Placement(cfg.Machine, opt)
	}
	mix := workload.MixConfig{
		Warehouses:    s.Warehouses,
		Weights:       s.Mix,
		RemotePct:     s.RemotePct,
		RemoteItemPct: s.RemoteItemPct,
		Sizing:        s.Sizing,
		Seed:          opt.Seed + 2,
	}
	return opt.plan("tpcc", cfg, nil,
		func(d *core.Deployment) engine.RequestSource { return workload.NewMix(mix, d.Part) },
		func(h *resultstore.Hasher) { h.Value(mix) })
}

// TPCCCell builds a TPC-C cell from its spec.
func TPCCCell(name string, s TPCCSpec, emits ...Emit) Cell {
	return planCell(name, s.ForceFull, s.plan, emits)
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

func (s SourceSpec) plan(opt Options) plan {
	opt = opt.forCell(s.SeedDelta, s.ForceFull)
	cfg := core.Config{
		Machine:   s.Machine(),
		Instances: s.Instances,
		Placement: core.PlacementIslands,
		Mechanism: ipc.UnixSocket,
		LocalOnly: s.LocalOnly,
		Tables:    append([]core.TableDecl(nil), s.Tables...),
	}
	return opt.plan("source", cfg, s.Tweak,
		func(d *core.Deployment) engine.RequestSource { return s.Source(d, opt) },
		func(h *resultstore.Hasher) { s.Key(opt, h) })
}

// SourceCell builds a deployment cell around a user-defined request source.
func SourceCell(name string, s SourceSpec, emits ...Emit) Cell {
	c := planCell(name, s.ForceFull, s.plan, emits)
	if s.Key == nil {
		c.Key = nil // nothing identifies the source: positional fallback
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
