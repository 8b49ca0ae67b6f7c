package harness

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"islands/internal/topology"
)

// TestQuickFingerprintGolden pins the registered experiments to a recorded
// fingerprint: every table value of every experiment at quick mode, seed 42,
// byte-identical both sequentially and at 4-way parallelism. Regenerate the
// golden file with `go run ./cmd/islands probe -experiments | tail -n +4`
// only for a change that intentionally alters simulated behavior. Last
// re-baselined for the sharded kernel (PR 7), whose mapping-invariant event
// keys required per-instance timestamp striding, per-instance mmap disks, a
// per-island fault-RNG split, and the fabric experiment's 4x latency
// amplification — each a deliberate one-time behavioral change.
func TestQuickFingerprintGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode shrinks the quick grids; the golden file pins full quick mode")
	}
	want, err := os.ReadFile("testdata/quick_fingerprint_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		opt := Options{Quick: true, Seed: 42, Parallel: par}
		var b strings.Builder
		for _, e := range All() {
			e.Run(opt).Fingerprint(&b)
		}
		if b.String() != string(want) {
			t.Errorf("parallel=%d: fingerprint diverged from PR 3 golden:\n%s",
				par, firstDiff(string(want), b.String()))
		}
	}
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("length: want %d lines, got %d", len(w), len(g))
}

// TestSeedsMeanStddevHandComputed checks the Seeds finalizer against
// values computed by hand: replicas produce 2, 4, 4, 10, so the mean is 5
// and the population stddev is sqrt((9+1+1+25)/4) = 3. A derived value
// written by the base study's Finalize (double the metric) must get its
// own honest statistics (mean 10, stddev 6), not a ratio of means.
func TestSeedsMeanStddevHandComputed(t *testing.T) {
	const base = int64(100)
	vals := []float64{2, 4, 4, 10}
	st := &Study{
		ID: "seedtest", Title: "seed stats",
		Tables: []*Table{NewTable("tab", "", "row", []string{"a"}, "", []string{"v", "d"})},
		Cells: []Cell{{
			Name: "c0",
			Run: func(opt Options) Metrics {
				r := (opt.Seed - base) / SeedStride
				if r < 0 || r >= int64(len(vals)) {
					t.Errorf("unexpected replica seed %d", opt.Seed)
					return Metrics{}
				}
				return Metrics{Value: vals[r]}
			},
			Emits: []Emit{ValueEmit(0, 0, 0)},
		}},
		Finalize: func(res *Result, ms []Metrics) {
			res.Tables[0].Set(0, 1, 2*ms[0].Value)
		},
	}
	rep := st.Seeds(len(vals))
	if len(rep.Cells) != len(vals) {
		t.Fatalf("Seeds(%d) built %d cells, want %d", len(vals), len(rep.Cells), len(vals))
	}
	for _, par := range []int{1, 3} {
		res := rep.Run(Options{Seed: base, Parallel: par})
		tab := res.Tables[0]
		wantCols := []string{"v", "v ±σ", "d", "d ±σ"}
		if len(tab.Cols) != len(wantCols) {
			t.Fatalf("cols = %v, want %v", tab.Cols, wantCols)
		}
		for j, c := range wantCols {
			if tab.Cols[j] != c {
				t.Errorf("col %d = %q, want %q", j, tab.Cols[j], c)
			}
		}
		for j, want := range []float64{5, 3, 10, 6} {
			if got := tab.Get(0, j); got != want {
				t.Errorf("parallel=%d: %s = %v, want %v", par, tab.Cols[j], got, want)
			}
		}
	}
}

// TestSeedsFig2ByteDeterministicAcrossParallelism is the golden
// determinism check of the seed-replication wrapper: Seeds(4) of fig2
// produces byte-identical fingerprints at -parallel 1 and -parallel 4.
func TestSeedsFig2ByteDeterministicAcrossParallelism(t *testing.T) {
	e, ok := Get("fig2")
	if !ok {
		t.Fatal("fig2 not registered")
	}
	var fps []string
	for _, par := range []int{1, 4} {
		opt := Options{Quick: true, Short: testing.Short(), Seed: 17, Parallel: par}
		var b strings.Builder
		e.Study(opt).Seeds(4).Run(opt).Fingerprint(&b)
		fps = append(fps, b.String())
	}
	if fps[0] != fps[1] {
		t.Fatalf("Seeds(4) fingerprint depends on parallelism:\n%s", firstDiff(fps[0], fps[1]))
	}
	if !strings.Contains(fps[0], "±σ") {
		t.Error("seed-replicated fingerprint has no ±σ columns")
	}
	// The OS-placement rows consume the seed, so replication must produce
	// genuine spread there.
	if !strings.Contains(fps[0], "fig2/counter throughput/os/mean ±σ = ") {
		t.Error("expected an os-row ±σ line")
	}
}

// TestSeedsReplicaZeroMatchesBase: replica 0 runs at the caller's seed, so
// a single-replica "sweep" must reproduce the base study exactly, and for
// n > 1 a cell that ignores the seed contributes zero stddev.
func TestSeedsReplicaZeroMatchesBase(t *testing.T) {
	// 1/3 is the adversarial constant: sum-of-squares or sum-then-divide
	// round on it, so a naive variance formula fabricates a tiny nonzero
	// stddev. The contract is exact: identical replicas, zero σ.
	const v = 1.0 / 3
	st := &Study{
		ID: "fixed", Title: "fixed",
		Tables: []*Table{NewTable("tab", "", "row", []string{"a"}, "", []string{"v"})},
		Cells: []Cell{{
			Name:  "c0",
			Run:   func(opt Options) Metrics { return Metrics{Value: v} },
			Emits: []Emit{ValueEmit(0, 0, 0)},
		}},
	}
	if got := st.Seeds(1); got != st {
		t.Error("Seeds(1) should return the study unchanged")
	}
	res := st.Seeds(3).Run(Options{Seed: 5})
	if m := res.Tables[0].Get(0, 0); m != v {
		t.Errorf("mean of constant cell = %v, want exactly %v", m, v)
	}
	if s := res.Tables[0].Get(0, 1); s != 0 {
		t.Errorf("stddev of constant cell = %v, want exactly 0", s)
	}
}

// TestStudyRunReusable: a Study value is immutable under Run — structural
// preset values survive, and two runs at the same options are identical
// (tables are cloned per run, never accumulated into).
func TestStudyRunReusable(t *testing.T) {
	tab := NewTable("tab", "", "row", []string{"a"}, "", []string{"preset", "measured"})
	tab.Set(0, 0, 42) // structural, not measured
	st := &Study{
		ID: "reuse", Title: "reuse", Tables: []*Table{tab},
		Cells: []Cell{{
			Name:  "c0",
			Run:   func(opt Options) Metrics { return Metrics{Value: float64(opt.Seed)} },
			Emits: []Emit{ValueEmit(0, 0, 1)},
		}},
	}
	r1 := st.Run(Options{Seed: 3})
	r2 := st.Run(Options{Seed: 3})
	for _, r := range []*Result{r1, r2} {
		if r.Tables[0].Get(0, 0) != 42 || r.Tables[0].Get(0, 1) != 3 {
			t.Fatalf("run values = %v", r.Tables[0].Values)
		}
	}
	if r1.Tables[0] == r2.Tables[0] {
		t.Error("runs share a table")
	}
	if tab.Get(0, 1) != 0 {
		t.Error("Run wrote into the study's own table")
	}
}

// TestGridRowMajor checks the cross-product helper: one cell per point,
// row-major order with the last axis fastest, and a private index slice.
func TestGridRowMajor(t *testing.T) {
	var seen [][]int
	cells := Grid(func(idx []int) Cell {
		seen = append(seen, idx)
		return Cell{Name: fmt.Sprintf("%v", idx), Run: func(Options) Metrics { return Metrics{} }}
	}, 2, 3)
	if len(cells) != 6 {
		t.Fatalf("Grid(2,3) built %d cells, want 6", len(cells))
	}
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for i, w := range want {
		if seen[i][0] != w[0] || seen[i][1] != w[1] {
			t.Fatalf("point %d = %v, want %v", i, seen[i], w)
		}
	}
	if got := Grid(func([]int) Cell { return Cell{} }, 2, 0); got != nil {
		t.Error("empty axis should produce no cells")
	}
}

// TestGeometryMachines checks the geometry sweep helper: fresh machine
// models per call (cells must not share them), default naming, and the
// default LLC size.
func TestGeometryMachines(t *testing.T) {
	g := Geometry{Sockets: 16, CoresPerSocket: 4}
	m1, m2 := g.Machine(), g.Machine()
	if m1 == m2 {
		t.Fatal("Geometry.Machine returned a shared model")
	}
	if m1.SocketCount != 16 || m1.CoresPerSocket != 4 || m1.NumCores() != 64 {
		t.Errorf("geometry not honored: %v", m1)
	}
	if m1.Name != "16s4c12M" || g.Label() != "16s4c12M" {
		t.Errorf("default name = %q, label = %q", m1.Name, g.Label())
	}
	// Geometries differing only in LLC must stay distinguishable: the
	// label is the row label and cell name of -geometry sweeps.
	small := Geometry{Sockets: 16, CoresPerSocket: 4, LLCBytes: 4 << 20}
	if small.Label() == g.Label() {
		t.Errorf("LLC-only variants share label %q", g.Label())
	}
	subMB := Geometry{Sockets: 16, CoresPerSocket: 4, LLCBytes: 12<<20 + 512<<10}
	if subMB.Label() == g.Label() || subMB.Label() != "16s4c12800K" {
		t.Errorf("sub-MB LLC label = %q, want distinct 16s4c12800K", subMB.Label())
	}
	if m1.LLCBytes != 12<<20 {
		t.Errorf("default LLC = %d, want 12 MB", m1.LLCBytes)
	}
	named := Geometry{Name: "hypo", Sockets: 2, CoresPerSocket: 2, LLCBytes: 1 << 20}
	if named.Machine().Name != "hypo" || named.Machine().LLCBytes != 1<<20 {
		t.Error("explicit name/LLC not honored")
	}

	ctors := Machines(g, named)
	if len(ctors) != 2 {
		t.Fatalf("Machines built %d constructors", len(ctors))
	}
	var ms []*topology.Machine
	for _, c := range ctors {
		ms = append(ms, c(), c())
	}
	if ms[0] == ms[1] || ms[0].SocketCount != 16 || ms[2].Name != "hypo" {
		t.Error("constructors must build fresh, per-geometry machines")
	}
}

// TestGeometryMachineRejectsInvalidKnobs: a geometry whose knobs would
// silently invalidate every simulated number must refuse to build — a
// fabric sized for a different socket count, a negative, non-finite or
// out-of-range latency scale, or a machine wider than the memory model's 16-socket sharer
// mask.
func TestGeometryMachineRejectsInvalidKnobs(t *testing.T) {
	expectPanic := func(name string, g Geometry) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Geometry.Machine did not panic", name)
			}
		}()
		g.Machine()
	}
	expectPanic("fabric size mismatch", Geometry{Sockets: 8, CoresPerSocket: 2, Interconnect: topology.Ring(4)})
	expectPanic("negative latency scale", Geometry{Sockets: 4, CoresPerSocket: 2, LatencyScale: -1})
	expectPanic("NaN latency scale", Geometry{Sockets: 4, CoresPerSocket: 2, LatencyScale: math.NaN()})
	expectPanic("infinite latency scale", Geometry{Sockets: 4, CoresPerSocket: 2, LatencyScale: math.Inf(1)})
	expectPanic("latency scale overflowing sim.Time", Geometry{Sockets: 4, CoresPerSocket: 2, LatencyScale: 1e300})
	expectPanic("wider than sharer mask", Geometry{Sockets: 32, CoresPerSocket: 2, Interconnect: topology.Hypercube(5)})

	// The boundary holds: 16 sockets (the fabric experiment's width) and
	// scale 0 (unscaled) are valid.
	if m := (Geometry{Sockets: 16, CoresPerSocket: 2, Interconnect: topology.Hypercube(4)}).Machine(); m.MeanHops() <= 1 {
		t.Error("16-socket hypercube geometry should build")
	}
}

// noopStudy builds a study of n simulation-free cells through the public
// builders, isolating plan construction plus executor dispatch overhead.
func noopStudy(n int) *Study {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("r%d", i)
	}
	st := &Study{
		ID: "noop", Title: "noop",
		Tables: []*Table{NewTable("tab", "", "row", rows, "", []string{"v"})},
	}
	st.Cells = Grid(func(idx []int) Cell {
		i := idx[0]
		return Cell{
			Name:  rows[i],
			Run:   func(Options) Metrics { return Metrics{Value: float64(i)} },
			Emits: []Emit{ValueEmit(0, i, 0)},
		}
	}, n)
	return st
}

// TestStudyDispatchAllocBounded guards the public builders' hot-path
// overhead the way TestMicroNextSteadyStateAllocFree guards the workload
// generator: constructing a 64-cell study and executing it end to end
// must stay allocation-bounded — a small constant per cell plus the
// result tables — so wrapping experiments in the study API cannot regress
// the executor.
func TestStudyDispatchAllocBounded(t *testing.T) {
	const n = 64
	opt := Options{Parallel: 1}
	allocs := testing.AllocsPerRun(20, func() {
		noopStudy(n).Run(opt)
	})
	// Budget: cell slice + closures + name strings + table clone + result
	// come to ~8 allocations per cell today; fail well before overhead
	// grows past 16/cell.
	if per := allocs / n; per > 16 {
		t.Errorf("study build+dispatch allocates %.1f objects/cell (%.0f total), want <= 16", per, allocs)
	}
}

// BenchmarkStudyDispatch measures builder + executor overhead per cell
// with simulation-free cells (allocs/op is the number guarded above).
func BenchmarkStudyDispatch(b *testing.B) {
	opt := Options{Parallel: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		noopStudy(64).Run(opt)
	}
}

// TestPrewarmedCellMatchesGolden pins one Prewarm-ed cell (Figure 14 is the
// only experiment that prewarms its buffer pools) to its line of the golden
// fingerprint, so the check survives -short: prewarmed pages are formatted
// like any missed page and must behave exactly as when they were synthesized
// in full.
func TestPrewarmedCellMatchesGolden(t *testing.T) {
	const line = "fig14/update, 0% multisite/24ISL/0.24M = "
	golden, err := os.ReadFile("testdata/quick_fingerprint_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(golden), line)
	if !ok {
		t.Fatalf("golden has no line %q", line)
	}
	want, _, _ := strings.Cut(rest, "\n")

	opt := Options{Quick: true, Seed: 42}
	for _, c := range studyFig14(opt).Cells {
		if c.Name != "fig14/update/p=0%/24ISL/rows=0.24M" {
			continue
		}
		if got := fmt.Sprintf("%.9g", c.Emits[0].Metric(c.Run(opt))); got != want {
			t.Errorf("%s = %s KTps, golden says %s", c.Name, got, want)
		}
		return
	}
	t.Fatal("fig14 has no such cell")
}
