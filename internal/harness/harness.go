// Package harness reproduces every table and figure of the paper's
// evaluation. Each experiment is registered under the paper's figure/table
// id, runs the corresponding workload over the corresponding deployments,
// and returns text tables whose rows/series mirror what the paper plots.
package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"islands/internal/core"
	"islands/internal/resultstore"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks sweeps and windows for CI and go test; the full mode
	// reproduces every point of the paper's charts.
	Quick bool
	// Short (used together with Quick) shrinks the quick sweeps further, to
	// the minimum grid this repo's own tests assert on: the `go test -short`
	// mode. Experiment result shapes still hold; intermediate sweep points
	// are dropped.
	Short bool
	// Seed perturbs workloads and OS placements.
	Seed int64

	// Parallel is how many plan cells the executor runs concurrently:
	// 0 (the default) uses runtime.GOMAXPROCS, 1 forces sequential
	// execution. Cells are independent simulations assembled by coordinate,
	// so every setting produces identical tables; parallelism only changes
	// wall-clock time.
	Parallel int
	// Progress, when non-nil, is called by the executor after each cell
	// completes (never concurrently): the experiment id, the finished
	// cell's name, and the done/total cell counts of the experiment.
	Progress func(exp, cell string, done, total int)
	// CellTime, when non-nil, receives each completed cell's measured
	// wall-clock (serialized like Progress, and called before it). Under a
	// Store, per-cell wall-clocks are also persisted as learned cost hints
	// that override static Cell.CostHint values in later runs' dispatch
	// order.
	CellTime func(exp, cell string, elapsed time.Duration)

	// Store, when non-nil, memoizes cell results across runs: before
	// dispatching a cell the executor derives its content-addressed key
	// (cell spec + machine + seed + mode, salted with a fingerprint of the
	// code's simulated behavior) and serves the stored Metrics on a hit —
	// skipping the simulation entirely, with bit-identical tables. Misses
	// run normally and append their result, so a store fills incrementally
	// and is shared safely by sequential and parallel runs. Open one with
	// OpenStore.
	Store *resultstore.Store
	// CellCache, when non-nil, is called once per completed cell with
	// whether it was served from Store (always false without a Store). It
	// is serialized with the other callbacks and called before CellTime,
	// so a CellTime observer can attribute the wall-clock it receives.
	CellCache func(exp, cell string, hit bool)

	// build, when non-nil, replaces core.NewDeployment for every cell's
	// deployment. Only this package's tests set it: to the one-heap
	// reference kernel the partitioned default is pinned against, or to a
	// deployment on kernel workers. It is a test seam, not a mode.
	build func(core.Config) *core.Deployment
}

// deploy builds a cell's deployment.
func (o Options) deploy(cfg core.Config) *core.Deployment {
	if o.build != nil {
		return o.build(cfg)
	}
	return core.NewDeployment(cfg)
}

// Table is one printable result grid.
type Table struct {
	Name    string
	Unit    string
	ColHead string // label of the column dimension, e.g. "% multisite"
	Cols    []string
	RowHead string // label of the row dimension, e.g. "config"
	Rows    []string
	Values  [][]float64 // [row][col]
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Ref    string // the paper's figure/table
	Notes  []string
	Tables []*Table
}

// Experiment is a registered reproduction: an index entry over the Study
// the experiment is built from. ID, Title and Ref are the study's own.
// Callers that want to transform the study before running it (seed
// replication, for example) call Study directly and Run the value it
// returns.
type Experiment struct {
	ID    string
	Title string
	Ref   string
	// Study builds the experiment's declarative study; grid sizes depend
	// on opt.Quick/opt.Short.
	Study func(opt Options) *Study
}

// Run builds the study and executes it.
func (e Experiment) Run(opt Options) *Result { return e.Study(opt).Run(opt) }

var (
	registry []Experiment       // registration order
	byID     = map[string]int{} // id -> registry index
)

// register indexes a study builder under the ID, Title and Ref of the study
// it builds (at the smallest grid: they do not depend on the options).
func register(study func(opt Options) *Study) {
	s := study(Options{Quick: true, Short: true})
	if _, dup := byID[s.ID]; dup {
		panic("harness: duplicate experiment id " + s.ID)
	}
	byID[s.ID] = len(registry)
	registry = append(registry, Experiment{ID: s.ID, Title: s.Title, Ref: s.Ref, Study: study})
}

// The registered experiments, in the order -list and the fingerprint print
// them.
func init() {
	for _, study := range []func(Options) *Study{
		studyFig2, studyTable1, studyFig3, studyFig6, studyFig7, studyFig8,
		studyFabric, studyFaults, studyFig12, studyFig13, studyFig14,
		studyFig9, studyFig10, studyFig11, studyTPCCMix, studyTrace,
	} {
		register(study)
	}
}

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	i, ok := byID[id]
	if !ok {
		return Experiment{}, false
	}
	return registry[i], true
}

// Run runs the experiment with the given id. Unknown ids return an error
// naming every valid id.
func Run(id string, opt Options) (*Result, error) {
	e, ok := Get(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (valid ids: %s)", id, strings.Join(IDs(), ", "))
	}
	return e.Run(opt), nil
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// NewTable builds an empty table with the given axes.
func NewTable(name, unit, rowHead string, rows []string, colHead string, cols []string) *Table {
	vals := make([][]float64, len(rows))
	for i := range vals {
		vals[i] = make([]float64, len(cols))
	}
	return &Table{
		Name: name, Unit: unit,
		RowHead: rowHead, Rows: rows,
		ColHead: colHead, Cols: cols,
		Values: vals,
	}
}

// axis labels one table row or column per value of a sweep axis.
func axis[T any](format string, values []T) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// Set stores a cell.
func (t *Table) Set(row, col int, v float64) { t.Values[row][col] = v }

// Get reads a cell.
func (t *Table) Get(row, col int) float64 { return t.Values[row][col] }

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.Name)
	if t.Unit != "" {
		fmt.Fprintf(&b, " [%s]", t.Unit)
	}
	b.WriteByte('\n')

	head := t.RowHead
	width := len(head)
	for _, r := range t.Rows {
		if len(r) > width {
			width = len(r)
		}
	}
	colw := make([]int, len(t.Cols))
	for j, c := range t.Cols {
		colw[j] = len(c)
		for i := range t.Rows {
			if w := len(formatCell(t.Values[i][j])); w > colw[j] {
				colw[j] = w
			}
		}
	}
	fmt.Fprintf(&b, "  %-*s", width, head)
	for j, c := range t.Cols {
		fmt.Fprintf(&b, "  %*s", colw[j], c)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s", width, r)
		for j := range t.Cols {
			fmt.Fprintf(&b, "  %*s", colw[j], formatCell(t.Values[i][j]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.1fK", v/1e3)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Format renders the whole result.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s (%s) ==\n", r.ID, r.Title, r.Ref)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.Format())
	}
	return b.String()
}

// Find returns a table by name (tests).
func (r *Result) Find(name string) *Table {
	for _, t := range r.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// randFor builds a deterministic RNG for a seed (OS placements, variance
// estimation).
func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
