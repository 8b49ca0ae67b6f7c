package harness

import (
	"fmt"
	"io"

	"islands/internal/mem"
	"islands/internal/resultstore"
	"islands/internal/topology"
)

// A Study is a named, self-describing grid of cells (plan.go) plus the
// result tables they fill, built by composable helpers —
// MicroCell/TPCCCell/ScalarCell for the cells, Grid for cross products,
// Seeds for seed-replicated error bars, Machines for hypothetical-geometry
// sweeps — and executed by the deterministic parallel executor, Study.Run
// (executor.go). The registered experiments are Studies too (registry in
// harness.go), so a downstream user composes new scenarios out of exactly
// the pieces the paper's reproductions are made of. The islands facade
// re-exports everything here; nothing in a Study's surface leaks types a
// facade user cannot name.

// Study is a declarative experiment a user can compose and run: metadata,
// the output tables, the cells that fill them, and an optional Finalize
// for derived values. A Study owns no execution state — Run clones the
// tables into a fresh Result each call, so one Study value may be run
// many times (and concurrently) with different Options.
type Study struct {
	ID    string
	Title string
	Ref   string // provenance, e.g. the paper's figure; free-form
	Notes []string
	// Tables are the pre-shaped output grids. Builders may preset
	// structural (non-measured) values; Run copies them into the Result.
	Tables []*Table
	// Cells are the independent simulations of the study's grid. Each must
	// construct every piece of state it touches: the executor may run
	// cells of one study concurrently from multiple goroutines.
	Cells []Cell
	// Finalize, when non-nil, runs after all cells completed and all emits
	// were applied; it computes derived values that need more than one
	// cell's metrics (ratios, mean/stddev over replicas).
	Finalize func(res *Result, metrics []Metrics)
}

// cloneTables deep-copies the table shapes and any preset values.
func cloneTables(tabs []*Table) []*Table {
	out := make([]*Table, len(tabs))
	for i, t := range tabs {
		c := *t
		c.Values = make([][]float64, len(t.Values))
		for r := range t.Values {
			c.Values[r] = append([]float64(nil), t.Values[r]...)
		}
		out[i] = &c
	}
	return out
}

// SeedStride separates the seed deltas of Seeds replicas. It is far above
// any seed delta a registered study uses internally (fig3's OS-placement
// cells top out near 5e5), so replica r of cell c never collides with a
// different cell of another replica.
const SeedStride int64 = 1_000_003

// Seeds returns a study that replicates every cell of s over n seeds and
// reports mean ± stddev: each output table keeps its shape but doubles
// its columns — after each original column comes a "±σ" column with the
// population standard deviation over the replicas. Replica r runs with
// opt.Seed + r*SeedStride (replica 0 is the original study bit-for-bit).
//
// The statistics are computed over fully assembled replicas: each
// replica's emits and the original Finalize are applied to a private copy
// of the tables, then every table cell — measured, structural, or derived
// — is averaged across replicas. Derived values (ratios, speedups) thus
// get honest error bars instead of ratios-of-means.
func (s *Study) Seeds(n int) *Study {
	if n <= 1 {
		return s
	}
	out := &Study{
		ID:    s.ID,
		Title: fmt.Sprintf("%s (mean ±σ over %d seeds)", s.Title, n),
		Ref:   s.Ref,
		Notes: append(append([]string(nil), s.Notes...),
			fmt.Sprintf("every cell replicated over %d seeds; ±σ columns are population stddevs", n)),
	}
	for _, t := range s.Tables {
		d := *t
		d.Cols = make([]string, 0, 2*len(t.Cols))
		for _, c := range t.Cols {
			d.Cols = append(d.Cols, c, c+" ±σ")
		}
		d.Values = make([][]float64, len(t.Rows))
		for r := range d.Values {
			d.Values[r] = make([]float64, len(d.Cols))
		}
		out.Tables = append(out.Tables, &d)
	}

	k := len(s.Cells)
	for r := 0; r < n; r++ {
		delta := int64(r) * SeedStride
		for _, c := range s.Cells {
			cc := c
			cc.Name = fmt.Sprintf("%s/seedrep%d", c.Name, r)
			run := c.Run
			cc.Run = func(opt Options) Metrics {
				opt.Seed += delta
				return run(opt)
			}
			// The result-store key gets the identical seed transform, so a
			// replica's key equals the key of the plain cell at that seed:
			// replica 0 is served by records the unreplicated study wrote,
			// and vice versa.
			if key := c.Key; key != nil {
				cc.Key = func(opt Options, h *resultstore.Hasher) {
					opt.Seed += delta
					key(opt, h)
				}
			}
			// Replicas do not emit directly: the finalizer below assembles
			// each replica privately and writes mean/stddev.
			cc.Emits = nil
			out.Cells = append(out.Cells, cc)
		}
	}

	base := s
	out.Finalize = func(res *Result, metrics []Metrics) {
		assembled := make([][]*Table, n)
		for r := 0; r < n; r++ {
			replica := &Result{ID: base.ID, Title: base.Title, Ref: base.Ref,
				Notes: base.Notes, Tables: cloneTables(base.Tables)}
			rm := metrics[r*k : (r+1)*k]
			for i, c := range base.Cells {
				for _, e := range c.Emits {
					replica.Tables[e.Table].Set(e.Row, e.Col, e.Metric(rm[i]))
				}
			}
			if base.Finalize != nil {
				base.Finalize(replica, rm)
			}
			assembled[r] = replica.Tables
		}
		vals := make([]float64, n)
		for ti, t := range base.Tables {
			for i := range t.Values {
				for j := range t.Values[i] {
					for r := 0; r < n; r++ {
						vals[r] = assembled[r][ti].Values[i][j]
					}
					mean, std := replicaStats(vals)
					res.Tables[ti].Set(i, 2*j, mean)
					res.Tables[ti].Set(i, 2*j+1, std)
				}
			}
		}
	}
	return out
}

// seedsCol reads column j of row i of a table that s.Seeds(n).Run produced,
// by s's own column numbering: the mean and its ±σ. It is the one decoder
// of Seeds' column doubling — n <= 1 left the table as it was, so σ is 0.
func seedsCol(t *Table, n, i, j int) (mean, sigma float64) {
	if n <= 1 {
		return t.Values[i][j], 0
	}
	return t.Values[i][2*j], t.Values[i][2*j+1]
}

// replicaStats computes mean and population stddev over one table cell's
// replica values. Identical replicas — structural values, and cells whose
// measurement never consumes the seed — short-circuit to (value, 0): the
// general formula's float rounding must not fabricate error bars on
// deterministic measurements.
func replicaStats(vals []float64) (mean, std float64) {
	allEqual := true
	for _, v := range vals[1:] {
		if v != vals[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return vals[0], 0
	}
	return meanStd(vals)
}

// Grid builds one cell per point of the cross product of the axis
// lengths, in row-major order (the last axis varies fastest): Grid(f, 2,
// 3) calls f with [0 0], [0 1], [0 2], [1 0], [1 1], [1 2]. The index
// slice passed to build is a private copy, so build may retain it — the
// usual move is straight into the cell's Emit coordinates.
func Grid(build func(idx []int) Cell, lens ...int) []Cell {
	total := 1
	for _, l := range lens {
		if l <= 0 {
			return nil
		}
		total *= l
	}
	cells := make([]Cell, 0, total)
	idx := make([]int, len(lens))
	for c := 0; c < total; c++ {
		cells = append(cells, build(append([]int(nil), idx...)))
		for d := len(lens) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < lens[d] {
				break
			}
			idx[d] = 0
		}
	}
	return cells
}

// Geometry describes a hypothetical machine for a machine-geometry sweep
// — the knobs of topology.Custom, the paper's "what hardware would change
// the verdict" axis. The zero LLCBytes defaults to 12 MB per socket (the
// quad-socket machine's size); the zero Interconnect defaults to fully
// connected and the zero LatencyScale to 1 (unscaled), so pre-fabric
// geometries are untouched.
type Geometry struct {
	Name           string // defaults to "<sockets>s<cores>c"
	Sockets        int
	CoresPerSocket int
	LLCBytes       int64 // per socket

	// Interconnect selects the socket fabric (zero value: fully
	// connected). Its socket count must match Sockets; Machine panics on a
	// mismatch, since a silently truncated hop matrix would invalidate the
	// whole sweep.
	Interconnect topology.Interconnect
	// LatencyScale multiplies the machine's cross-socket latency terms
	// (see topology.Machine.LatencyScale). 0 and 1 both mean unscaled;
	// any other value must lie within 0.001..1e6.
	LatencyScale float64
}

// Machine constructs a fresh machine model of the geometry. Every call
// returns a new value: cells must not share a *topology.Machine. Invalid
// knobs panic rather than run: a mismatched fabric, a latency scale that is
// not finite or lies outside 0.001..1e6, or a machine wider than the memory
// model's sharer mask (mem.MaxSockets) would silently invalidate every
// number the sweep produces.
func (g Geometry) Machine() *topology.Machine {
	if g.Sockets > mem.MaxSockets {
		panic(fmt.Sprintf("harness: geometry %s has %d sockets; the MESI model's sharer mask supports at most %d",
			g.Label(), g.Sockets, mem.MaxSockets))
	}
	if s := g.LatencyScale; s != 0 && !validLatencyScale(s) {
		panic(fmt.Sprintf("harness: geometry %s has latency scale %v; want 0 (unscaled) or %g..%g",
			g.Label(), s, minLatencyScale, maxLatencyScale))
	}
	m := topology.Custom(g.Label(), g.Sockets, g.CoresPerSocket, g.llcBytes())
	if n := g.Interconnect.Sockets(); n != 0 {
		if n != g.Sockets {
			panic(fmt.Sprintf("harness: geometry %s has %d sockets but interconnect %q connects %d",
				g.Label(), g.Sockets, g.Interconnect.Name, n))
		}
		m.Interconnect = g.Interconnect
	}
	m.LatencyScale = g.LatencyScale
	return m
}

// Label returns the geometry's display name: Name, or a default that
// encodes every swept knob ("16s4c12M") so geometries differing only in
// LLC size stay distinguishable in row labels and cell names. Sub-MB LLC
// sizes keep their precision in KB (or bytes) rather than truncating.
func (g Geometry) Label() string {
	if g.Name != "" {
		return g.Name
	}
	llc := g.llcBytes()
	size := fmt.Sprintf("%dM", llc>>20)
	switch {
	case llc%(1<<10) != 0:
		size = fmt.Sprintf("%dB", llc)
	case llc%(1<<20) != 0:
		size = fmt.Sprintf("%dK", llc>>10)
	}
	return fmt.Sprintf("%ds%dc%s%s", g.Sockets, g.CoresPerSocket, size, g.variantSuffix())
}

// variantSuffix encodes the fabric and latency-scale knobs into default
// labels, so geometries differing only in interconnect or scale stay
// distinguishable in row labels and cell names. Unset knobs contribute
// nothing: pre-fabric labels are unchanged.
func (g Geometry) variantSuffix() string {
	var s string
	if g.Interconnect.Sockets() != 0 {
		s += "-" + g.Interconnect.Name
	}
	if g.LatencyScale != 0 && g.LatencyScale != 1 {
		s += fmt.Sprintf("-ls%g", g.LatencyScale)
	}
	return s
}

func (g Geometry) llcBytes() int64 {
	if g.LLCBytes == 0 {
		return 12 << 20
	}
	return g.LLCBytes
}

// Interconnects fans a base geometry across socket fabrics: one Geometry
// per fabric, each keeping every other knob of the base. A fabric sweep
// composes with the rest of the study API exactly like any geometry list —
// Machines turns it into cell constructors, Grid crosses it with workload
// axes, Seeds replicates the result. Explicitly named bases get the
// fabric's name appended so the variants stay distinguishable.
func Interconnects(base Geometry, fabrics ...topology.Interconnect) []Geometry {
	out := make([]Geometry, len(fabrics))
	for i, ic := range fabrics {
		g := base
		g.Interconnect = ic
		if base.Name != "" {
			g.Name = base.Name + "-" + ic.Name
		}
		out[i] = g
	}
	return out
}

// LatencyScales fans a base geometry across interconnect latency scales:
// one Geometry per scale (0.5 = an interconnect twice as fast, 2 = twice
// as slow), each keeping every other knob of the base. Explicitly named
// bases get a "-ls<scale>" suffix for scales other than 1.
func LatencyScales(base Geometry, scales ...float64) []Geometry {
	out := make([]Geometry, len(scales))
	for i, s := range scales {
		g := base
		g.LatencyScale = s
		if base.Name != "" && s != 0 && s != 1 {
			g.Name = fmt.Sprintf("%s-ls%g", base.Name, s)
		}
		out[i] = g
	}
	return out
}

// Machines returns one machine constructor per geometry, ready for
// MicroSpec.Machine / TPCCSpec.Machine: a geometry sweep is a list of
// constructors, exactly what the cell specs take.
func Machines(geos ...Geometry) []func() *topology.Machine {
	out := make([]func() *topology.Machine, len(geos))
	for i, g := range geos {
		g := g
		out[i] = g.Machine
	}
	return out
}

// Fingerprint writes every table value of the result at full float
// precision, one "<id>/<table>/<row>/<col> = <value>" line per cell.
// Two builds of the repo simulate identically if and only if their
// fingerprints are byte-identical; islandsprobe prints these for every
// experiment and CI diffs sequential against parallel runs.
func (r *Result) Fingerprint(w io.Writer) {
	for _, t := range r.Tables {
		for i, row := range t.Rows {
			for j, col := range t.Cols {
				fmt.Fprintf(w, "%s/%s/%s/%s = %.9g\n", r.ID, t.Name, row, col, t.Values[i][j])
			}
		}
	}
}
