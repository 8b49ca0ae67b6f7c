// Package islands is a reproduction of "OLTP on Hardware Islands"
// (Porobic, Pandis, Branco, Tözün, Ailamaki — PVLDB 5(11), 2012) as a Go
// library: a Shore-MT-class transactional storage manager, a shared-nothing
// prototype with a two-phase-commit coordinator, and an islands deployment
// layer that places database instances in a hardware-topology-aware way —
// all executed on a deterministic discrete-event simulation of multisocket
// multicore machines.
//
// The public API re-exports the building blocks the examples use:
//
//   - machines: QuadSocket and CustomMachine (hardware topology models),
//     with first-class socket fabrics (Interconnect: FullyConnected, Ring,
//     Mesh2D, Torus2D, Hypercube, CustomHops) and a LatencyScale knob that
//     answers "what if the interconnect were 2x faster?" as one parameter;
//   - deployments: Config/NewDeployment build N range-partitioned engine
//     instances placed as islands (or deliberately spread), Run measures
//     throughput and breakdowns over simulated time;
//   - workloads: the paper's microbenchmarks (NewMicroWorkload), the TPC-C
//     transaction mix (NewTPCCWorkload for the full five-transaction
//     standard mix, NewPaymentWorkload for the historical Payment-only
//     stream) and any user-defined RequestSource;
//   - the advisor: Advise ranks island size × machine geometry candidates
//     for a generated microbenchmark, with ±σ and the paper's throughput
//     model calibrated beside the measurement, answering the paper's
//     future-work question (TraceAdvise, below, answers it for a recorded
//     workload through the same pipeline);
//   - experiments: Experiments/RunExperiment regenerate every table and
//     figure of the paper;
//   - fault injection: Config.Faults schedules a deterministic FaultPlan
//     (an IslandCrash, say) on the simulation kernel;
//     Deployment.RunWindows measures per-window throughput, abort-rate and
//     availability series, so a crash shows up as a dip and recovery as the
//     climb back — same seed, same faults, bit-identical output;
//   - traces: NewTraceRecorder tees any workload into a compact versioned
//     binary trace (one record per transaction: timestamp, kind, stream,
//     rows touched); NewTraceReplayer feeds a trace back deterministically
//     — bit-equal metrics on the recorded deployment, a time-ordered
//     round-robin deal on any other geometry; TraceAdvise replays one
//     trace across island size × geometry candidates and ranks them with
//     ±σ, answering the advisor's question for *your* workload;
//   - the study API: Study, Cell, Emit and Table expose the declarative
//     plan layer the experiments themselves are built on. MicroCell builds
//     a cell from its spec, Grid enumerates cross products, Study.Seeds
//     replicates every cell over N seeds and reports mean ±σ columns, and
//     Geometry/Machines sweep hypothetical machine geometries
//     (Interconnects and LatencyScales fan a geometry across fabrics and
//     wire speeds). Study.Run executes on the deterministic parallel
//     executor: results are bit-identical at every Parallel setting, and a
//     ResultStore memoizes cells across runs.
//
// The command cmd/islands reaches the same artifacts from a shell:
// `islands run` regenerates the experiments, `islands probe` prints the
// determinism fingerprint, `islands advise` is the advisor (synthetic or
// trace-driven) and `islands topo` prints the machine models. See examples/
// for runnable walkthroughs (examples/study builds from-scratch
// seed-replicated geometry and fabric studies) and DESIGN.md for how the
// simulation substitutes for the paper's hardware and for the study API's
// determinism contract.
package islands

import (
	"fmt"

	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/exec"
	"islands/internal/fault"
	"islands/internal/harness"
	"islands/internal/ipc"
	"islands/internal/resultstore"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/topology"
	"islands/internal/trace"
	"islands/internal/wal"
	"islands/internal/workload"
)

// Machine describes a multisocket multicore server.
type Machine = topology.Machine

// CoreID identifies a hardware core.
type CoreID = topology.CoreID

// QuadSocket is the paper's quad-socket testbed machine (Table 2).
var QuadSocket = topology.QuadSocket

// CustomMachine builds a fully-connected machine with the given geometry.
func CustomMachine(name string, sockets, coresPerSocket int, llcBytes int64) *Machine {
	return topology.Custom(name, sockets, coresPerSocket, llcBytes)
}

// Interconnect is a socket fabric: a named, validated matrix of
// interconnect hop counts between every socket pair. Machines expose
// theirs as Machine.Interconnect; Geometry sweeps them.
type Interconnect = topology.Interconnect

// Interconnect constructors: the paper's two fabrics (FullyConnected is
// the quad-socket testbed, Hypercube(3) the octo-socket's 3 QPI links per
// CPU) plus the what-if shapes the testbed never had.
var (
	FullyConnected = topology.FullyConnected
	Ring           = topology.Ring
	Hypercube      = topology.Hypercube
)

// Mesh2D builds a rows x cols grid fabric; hops are Manhattan distances.
func Mesh2D(rows, cols int) Interconnect { return topology.Mesh2D(rows, cols) }

// Torus2D is Mesh2D with wrap-around links in both dimensions.
func Torus2D(rows, cols int) Interconnect { return topology.Torus2D(rows, cols) }

// CustomHops builds a fabric from a user-supplied hop matrix, rejecting
// matrices that are asymmetric, have a nonzero diagonal, or leave socket
// pairs disconnected.
func CustomHops(hops [][]int) (Interconnect, error) { return topology.CustomHops(hops) }

// Config describes a deployment: machine, instance count, placement, data.
type Config = core.Config

// TableDecl declares one global table of a deployment — the one declaration
// type shared by Config.Tables, the TPC-C table sets and a Trace's schema.
type TableDecl = storage.TableDecl

// Placement strategies (Figure 4).
const (
	PlacementIslands = core.PlacementIslands
	PlacementSpread  = core.PlacementSpread
)

// UnixSocket is the IPC layer's default mechanism and the paper's choice
// (Figure 6).
const UnixSocket = ipc.UnixSocket

// Deployment is a built set of database instances on a simulated machine.
type Deployment = core.Deployment

// Measurement is the result of a measured window.
type Measurement = core.Measurement

// Request/operation types for custom workloads.
type (
	Request       = engine.Request
	Op            = engine.Op
	RequestSource = engine.RequestSource
	InstanceID    = engine.InstanceID
)

// OpRead is the operation kind that reads one row.
const OpRead = engine.OpRead

// Time is virtual time in nanoseconds.
type Time = sim.Time

// Virtual time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// DefaultConfig returns the paper's standard single-table microbenchmark
// dataset (250-byte rows) on machine m with the given instance count.
func DefaultConfig(m *Machine, instances int, rows int64) Config {
	return core.DefaultConfig(m, instances, rows)
}

// NewDeployment builds and loads a deployment.
func NewDeployment(cfg Config) *Deployment { return core.NewDeployment(cfg) }

// MicroConfig parameterizes the paper's microbenchmark: RowsPerTxn rows are
// read or updated; PctMultisite of transactions touch rows outside the
// submitting partition; ZipfS skews row choice.
type MicroConfig = workload.MicroConfig

// NewMicroWorkload builds the microbenchmark request source for deployment
// d.
func NewMicroWorkload(cfg MicroConfig, d *Deployment) RequestSource {
	return workload.NewMicro(cfg, d.Part)
}

// TPCCConfig parameterizes the historical TPC-C Payment-only generator.
type TPCCConfig = workload.TPCCConfig

// TPCCMixConfig parameterizes the full TPC-C transaction-mix generator:
// weights over the five transactions, remote-customer and remote-stock
// probabilities, and table sizing.
type TPCCMixConfig = workload.MixConfig

// TPCCMixWeights are relative frequencies of the five TPC-C transactions.
type TPCCMixWeights = workload.MixWeights

// TPCCSizing scales the TPC-C table cardinalities (zero value = spec).
type TPCCSizing = workload.Sizing

// Transaction-mix constructors.
var (
	// StandardMix is the specification mix: 45% NewOrder, 43% Payment, 4%
	// each of OrderStatus, Delivery, StockLevel.
	StandardMix = workload.StandardMix
	// SpecTPCCSizing returns the specification table cardinalities.
	SpecTPCCSizing = workload.SpecSizing
)

// TPCCTables returns the historical Payment-only table declarations for w
// warehouses, ready for Config.Tables.
func TPCCTables(w int) []TableDecl {
	return TPCCMixTables(w, workload.PaymentOnly(), workload.SpecSizing())
}

// TPCCMixTables returns the table declarations a transaction mix needs for
// w warehouses: the union of the active transactions' tables, Payment-only
// being exactly the historical four.
func TPCCMixTables(w int, weights TPCCMixWeights, sizing TPCCSizing) []TableDecl {
	return workload.MixTableSet(w, weights, sizing)
}

// NewPaymentWorkload builds the historical TPC-C Payment request source
// (bit-identical to the pre-mix generator's stream).
func NewPaymentWorkload(cfg TPCCConfig, d *Deployment) RequestSource {
	return workload.NewPayment(cfg, d.Part)
}

// NewTPCCWorkload builds the TPC-C transaction-mix request source. Declare
// the deployment's tables with TPCCMixTables using the same weights and
// sizing.
func NewTPCCWorkload(cfg TPCCMixConfig, d *Deployment) RequestSource {
	return workload.NewMix(cfg, d.Part)
}

// FaultPlan is a deterministic fault schedule for Config.Faults: typed
// events fired at fixed virtual times by the simulation kernel. Same seed,
// same plan: bit-identical results, including every fault's effect.
type FaultPlan = fault.Plan

// FaultEvent is one scheduled fault.
type FaultEvent = fault.Event

// IslandCrash is a fail-stop island crash: volatile state is lost, the WAL
// is replayed on restart, and recovery time is charged as downtime.
type IslandCrash = fault.IslandCrash

// Advice is the advisor's ranked recommendation: Best, every Candidate in
// Ranked order, and the underlying study Result.
type Advice = harness.Advice

// Advise ranks island size × machine geometry candidates (sizes nil = every
// size dividing each geometry's cores) for a generated microbenchmark of
// `rows` rows with mc's transaction shape, and calibrates the paper's
// throughput model T = (1-p)*Tlocal + p*Tdistr beside each measurement;
// seeds > 1 adds ±σ. This implements the paper's stated future work.
func Advise(mc MicroConfig, rows int64, geos []Geometry, sizes []int, seeds int, opt StudyOptions) (*Advice, error) {
	return harness.AdviseMicro(mc, rows, geos, sizes, seeds, opt)
}

// Experiment reproduces one of the paper's tables or figures.
type Experiment = harness.Experiment

// ExperimentResult is an experiment's formatted output.
type ExperimentResult = harness.Result

// Experiments returns every registered reproduction (fig2..fig14, table1,
// and the full TPC-C mix experiment "tpcc"). Each carries the Study
// builder it is made of, so callers can transform a registered experiment
// (e.g. Study(opt).Seeds(4).Run(opt)) instead of just running it.
func Experiments() []Experiment { return harness.All() }

// ExperimentIDs returns every registered experiment id, sorted.
func ExperimentIDs() []string { return harness.IDs() }

// RunExperiment runs the experiment with the given id ("fig9", "table1",
// ...). Unknown ids return an error naming every valid id.
func RunExperiment(id string, opt StudyOptions) (*ExperimentResult, error) {
	res, err := harness.Run(id, opt)
	if err != nil {
		return nil, fmt.Errorf("islands: %w", err)
	}
	return res, nil
}

// Study is a named, composable grid of measurement cells plus the result
// tables they fill — the declarative carrier behind every registered
// experiment, now buildable by library users. Construct one directly
// (ID/Title/Tables/Cells), transform it with Seeds, and execute it with
// Run; results are bit-identical at every Parallel setting.
type Study = harness.Study

// Cell is one independent unit of a study's grid: machine + config +
// workload + seed, with the output coordinates it feeds. Cells must
// construct every piece of state they touch — the executor may run cells
// of one study concurrently.
type Cell = harness.Cell

// Emit wires one value of a cell's metrics to one table cell:
// Tables[Table].Values[Row][Col] = Metric(metrics).
type Emit = harness.Emit

// Table is one printable result grid of a study.
type Table = harness.Table

// StudyOptions tune a study or experiment run. Studies are declarative
// cell plans executed on a worker pool: Parallel sets the number of
// concurrently-run cells (0 = GOMAXPROCS, 1 = sequential; results are
// identical at any setting), Progress optionally observes per-cell
// completion, and CellTime optionally receives each cell's measured
// wall-clock.
type StudyOptions = harness.Options

// MicroCellSpec declares a microbenchmark deployment cell: machine
// constructor, instance count, dataset, workload mix, seed delta.
type MicroCellSpec = harness.MicroSpec

// TPCCCellSpec declares the TPC-C deployment RecordTPCCTrace runs: machine
// constructor, instance count, warehouses, transaction-mix weights, remote
// probabilities, sizing.
type TPCCCellSpec = harness.TPCCSpec

// Geometry describes a hypothetical machine for a machine-geometry sweep
// (the knobs of CustomMachine). Its Machine method builds a fresh
// topology model per call, as cell specs require.
type Geometry = harness.Geometry

// NewTable builds an empty study table with the given axes.
func NewTable(name, unit, rowHead string, rows []string, colHead string, cols []string) *Table {
	return harness.NewTable(name, unit, rowHead, rows, colHead, cols)
}

// MicroCell builds a microbenchmark cell from its spec.
func MicroCell(name string, s MicroCellSpec, emits ...Emit) Cell {
	return harness.MicroCell(name, s, emits...)
}

// Grid builds one cell per point of the cross product of the axis
// lengths, in row-major order (the last axis varies fastest).
func Grid(build func(idx []int) Cell, lens ...int) []Cell {
	return harness.Grid(build, lens...)
}

// Machines returns one fresh-machine constructor per geometry, ready for
// the Machine field of MicroCellSpec/TPCCCellSpec: a geometry sweep is a
// list of constructors.
func Machines(geos ...Geometry) []func() *Machine { return harness.Machines(geos...) }

// Interconnects fans a base geometry across socket fabrics: one Geometry
// per fabric, keeping every other knob. Compose with Machines/Grid/Seeds
// like any geometry list.
func Interconnects(base Geometry, fabrics ...Interconnect) []Geometry {
	return harness.Interconnects(base, fabrics...)
}

// LatencyScales fans a base geometry across interconnect latency scales
// (0.5 = an interconnect twice as fast, 2 = twice as slow), keeping every
// other knob — the paper's "what if the interconnect were faster" question
// as one sweep axis.
func LatencyScales(base Geometry, scales ...float64) []Geometry {
	return harness.LatencyScales(base, scales...)
}

// TPSEmit emits a cell's throughput in KTps at the given coordinates.
func TPSEmit(table, row, col int) Emit { return harness.TPSEmit(table, row, col) }

// ParseGeometry parses one "sockets:coresPerSocket:LLC-MB[:fabric]" spec
// (e.g. "4:6:8:ring") — the -geometry flag language of `islands probe`
// and `islands advise`. The optional fabric is full, ring, mesh, torus or
// hypercube.
func ParseGeometry(s string) (Geometry, error) { return harness.ParseGeometry(s) }

// Trace is a recorded workload: one compact record per transaction
// (virtual timestamp, transaction kind, worker stream, row operations with
// global keys), with the recorded deployment's table schema attached. A
// trace recorded on one deployment replays on any candidate geometry — the
// workload-as-first-class-input abstraction behind the trace-driven
// advisor. Encode/WriteFile persist the compact versioned binary form;
// Dump renders text.
type Trace = trace.Trace

// TraceRecorder wraps any RequestSource and tees every request into an
// in-memory trace; Finish assembles the canonical Trace. Recording is a
// pass-through in virtual time: a recorded run's metrics equal the
// unrecorded run's.
type TraceRecorder = trace.Recorder

// TraceReplayer feeds a recorded trace back as a RequestSource. On the
// deployment the trace was recorded from it replays bit-faithfully (exact
// mode); on any other geometry it deals the time-ordered records
// round-robin over the new worker streams.
type TraceReplayer = trace.Replayer

// NewTraceRecorder wraps src for recording. tables declares every table
// the source touches (TPCCMixTables for mix workloads, Config.Tables in
// general); the schema travels with the trace.
func NewTraceRecorder(src RequestSource, label string, tables []TableDecl) *TraceRecorder {
	return trace.NewRecorder(src, label, tables)
}

// NewTraceReplayer builds a replayer feeding t to deployment d's worker
// streams. rotate shifts the stream deal (0 = faithful replay; the advisor
// maps seed replicas to rotations for honest ±σ on a deterministic
// source).
func NewTraceReplayer(t *Trace, d *Deployment, rotate int64) (*TraceReplayer, error) {
	workers := make([]int, len(d.Instances))
	for i, in := range d.Instances {
		workers[i] = len(in.Cores)
	}
	return trace.NewReplayer(t, workers, rotate)
}

// TraceTables returns a trace's embedded schema, ready for Config.Tables of
// a replay deployment.
func TraceTables(t *Trace) []TableDecl { return t.Tables }

// DecodeTrace parses an encoded trace; arbitrary corrupt input errors
// cleanly (the decoder is fuzzed).
func DecodeTrace(data []byte) (*Trace, error) { return trace.Decode(data) }

// ReadTraceFile decodes a trace file written by Trace.WriteFile.
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadFile(path) }

// RecordTPCCTrace runs the TPC-C mix of the given cell spec wrapped in a
// recorder and returns the finished trace — the quickest way to produce a
// real trace without wiring a recorder by hand.
func RecordTPCCTrace(s TPCCCellSpec, opt StudyOptions) *Trace {
	return harness.RecordTPCC(s, opt)
}

// TraceAdvise replays one recorded trace across island size × machine
// geometry candidates (sizes nil = every size dividing each geometry's
// cores) and ranks the outcomes; seeds > 1 adds ±σ via seed-replica stream
// rotations. The trace's schema travels with it: each candidate deployment
// declares the trace's tables range-partitioned over its instances, so the
// same global keys become local or multisite according to the candidate —
// the question the advisor answers.
func TraceAdvise(t *Trace, geos []Geometry, sizes []int, seeds int, opt StudyOptions) (*Advice, error) {
	return harness.AdviseTrace(t, geos, sizes, seeds, opt)
}

// ResultStore is a persistent content-addressed archive of study cell
// results plus learned per-cell cost hints. Set it as StudyOptions.Store
// and every cell a run executes is memoized: a later run of the same cell
// — same machine, config, workload, seed and mode, under the same build —
// is served from the archive without simulating, with bit-identical
// tables. Keys are salted with a fingerprint of the build's simulated
// behavior, so a store can never serve results the current code would not
// produce; the archive file also carries the payload schema in its name,
// so incompatible layouts never collide. Safe for concurrent use within a
// process; sequential and parallel runs share one store.
type ResultStore = resultstore.Store

// OpenResultStore opens (creating if needed) a result store for study cell
// results under dir.
func OpenResultStore(dir string) (*ResultStore, error) { return harness.OpenStore(dir) }

// WalOptions configures logging (group commit, flush latency, Aether-style
// consolidation).
type WalOptions = wal.Options

// DefaultWalOptions returns the paper's logging setup (group commit,
// memory-mapped log device).
func DefaultWalOptions() WalOptions { return wal.DefaultOptions() }

// Bucket names one component of the per-transaction time breakdown
// (Figure 11).
type Bucket = exec.Bucket

// BucketExecution is the breakdown's execution component.
const BucketExecution = exec.BExec
