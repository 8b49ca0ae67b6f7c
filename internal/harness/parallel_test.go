package harness

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"islands/internal/core"
)

// The registry is run four times per experiment at seed 11 across the two
// tests below: the one-heap reference, the default sequentially, the default
// with four concurrent cells and the default on four kernel workers. The
// sequential default run is the pivot both tests compare against, so it is
// made once per experiment and shared.
var sequentialRuns sync.Map // experiment ID -> func() *Result

func sequentialOptions() Options {
	return Options{Quick: true, Short: testing.Short(), Seed: 11, Parallel: 1}
}

func sequentialRun(e Experiment) *Result {
	run, _ := sequentialRuns.LoadOrStore(e.ID, sync.OnceValue(func() *Result {
		return e.Run(sequentialOptions())
	}))
	return run.(func() *Result)()
}

// TestParallelMatchesSequential is the executor's behavior-preservation
// contract: for every registered experiment, a sequential run and a 4-way
// parallel run at the same seed produce bit-identical tables. Cells are
// self-contained simulations assembled by coordinate, so execution order —
// and therefore concurrency — must not be observable in the result. The CI
// race job runs this test under -race, covering the parallel path.
func TestParallelMatchesSequential(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			par := sequentialOptions()
			par.Parallel = 4
			if err := equalResults(sequentialRun(e), e.Run(par)); err != nil {
				t.Fatalf("parallel run diverges from sequential: %v", err)
			}
		})
	}
}

// TestShardedMatchesUnsharded is the determinism contract at the
// deployment level, for every registered experiment — including the
// fault-injection studies, whose per-window series feed their tables. The
// reference is a sequential quick run on the classic kernel (every island on
// one event partition, one heap). The default kernel (one partition per
// island, windows inline on the cell's goroutine) and the default on four
// kernel workers, both run sequentially, must produce bit-identical tables:
// partitioning and kernel workers only ever move wall-clock time. The CI
// race job runs this under -race, covering the multi-worker window path.
func TestShardedMatchesUnsharded(t *testing.T) {
	onWorkers := func(cfg core.Config) *core.Deployment {
		cfg.Shards = 4
		return core.NewDeployment(cfg)
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			ref, workers := sequentialOptions(), sequentialOptions()
			ref.build = core.NewSinglePartitionDeployment
			workers.build = onWorkers
			want := e.Run(ref)
			if err := equalResults(want, sequentialRun(e)); err != nil {
				t.Fatalf("default kernel diverges from the single-partition kernel: %v", err)
			}
			if err := equalResults(want, e.Run(workers)); err != nil {
				t.Fatalf("4-worker run diverges from the single-partition kernel: %v", err)
			}
		})
	}
}

func equalResults(a, b *Result) error {
	if a.ID != b.ID || len(a.Tables) != len(b.Tables) {
		return fmt.Errorf("shape: id %q/%q, %d/%d tables", a.ID, b.ID, len(a.Tables), len(b.Tables))
	}
	for ti := range a.Tables {
		ta, tb := a.Tables[ti], b.Tables[ti]
		if ta.Name != tb.Name || len(ta.Rows) != len(tb.Rows) || len(ta.Cols) != len(tb.Cols) {
			return fmt.Errorf("table %d shape: %q vs %q", ti, ta.Name, tb.Name)
		}
		for i := range ta.Rows {
			for j := range ta.Cols {
				if ta.Values[i][j] != tb.Values[i][j] {
					return fmt.Errorf("%s[%s][%s]: %v != %v",
						ta.Name, ta.Rows[i], ta.Cols[j], ta.Values[i][j], tb.Values[i][j])
				}
			}
		}
	}
	return nil
}

// TestPlanShapes checks every registered plan's static structure in both
// quick and quick+short modes without running any simulation: cells exist,
// are uniquely named, and every emit lands inside its table.
func TestPlanShapes(t *testing.T) {
	for _, e := range All() {
		if e.Study == nil {
			t.Errorf("%s: no study builder", e.ID)
			continue
		}
		for _, opt := range []Options{{Quick: true}, {Quick: true, Short: true}} {
			p := e.Study(opt)
			if p.ID != e.ID {
				t.Errorf("%s: study id %q", e.ID, p.ID)
			}
			if len(p.Cells) == 0 {
				t.Errorf("%s: plan has no cells", e.ID)
			}
			names := make(map[string]bool, len(p.Cells))
			for _, c := range p.Cells {
				if c.Name == "" || c.Run == nil {
					t.Errorf("%s: cell missing name or run", e.ID)
				}
				if names[c.Name] {
					t.Errorf("%s: duplicate cell name %q", e.ID, c.Name)
				}
				names[c.Name] = true
				for _, em := range c.Emits {
					if em.Table < 0 || em.Table >= len(p.Tables) {
						t.Errorf("%s/%s: emit table %d out of range", e.ID, c.Name, em.Table)
						continue
					}
					tab := p.Tables[em.Table]
					if em.Row < 0 || em.Row >= len(tab.Rows) || em.Col < 0 || em.Col >= len(tab.Cols) {
						t.Errorf("%s/%s: emit (%d,%d) outside table %q", e.ID, c.Name, em.Row, em.Col, tab.Name)
					}
					if em.Metric == nil {
						t.Errorf("%s/%s: emit without metric", e.ID, c.Name)
					}
				}
			}
		}
	}
}

// TestDispatchOrderHonorsCostHints checks the parallel executor's start
// order: higher-hinted cells first, declaration order breaking ties. The
// hint must never affect results (TestShardedMatchesUnsharded), only when
// long cells begin.
func TestDispatchOrderHonorsCostHints(t *testing.T) {
	cells := []Cell{
		{Name: "a", CostHint: 0},
		{Name: "b", CostHint: 2},
		{Name: "c", CostHint: 0},
		{Name: "d", CostHint: 1},
		{Name: "e", CostHint: 2},
	}
	got := dispatchOrder(cells, nil)
	want := []int{1, 4, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

// TestFig14DiskBoundCellsHinted pins the satellite wiring: the plan's
// disk-bound cells (the wall-clock outliers) carry a positive cost hint and
// therefore dispatch before the in-memory cells.
func TestFig14DiskBoundCellsHinted(t *testing.T) {
	e, ok := Get("fig14")
	if !ok {
		t.Fatal("fig14 not registered")
	}
	p := e.Study(Options{Quick: true})
	hinted := 0
	for _, c := range p.Cells {
		if c.CostHint > 0 {
			hinted++
		}
	}
	if hinted == 0 || hinted == len(p.Cells) {
		t.Fatalf("fig14 has %d/%d hinted cells; want some but not all", hinted, len(p.Cells))
	}
	order := dispatchOrder(p.Cells, nil)
	for i := 0; i < hinted; i++ {
		if p.Cells[order[i]].CostHint == 0 {
			t.Fatalf("dispatch slot %d is an unhinted cell before all hinted ones ran", i)
		}
	}
}

// TestExecutorCellTime checks the wall-clock accounting callback: exactly
// one call per cell with a nonnegative elapsed time, sequentially and in
// parallel (calls are serialized, so the trace needs no locking).
func TestExecutorCellTime(t *testing.T) {
	e, ok := Get("fig6")
	if !ok {
		t.Fatal("fig6 not registered")
	}
	for _, workers := range []int{1, 3} {
		opt := Options{Quick: true, Short: testing.Short(), Seed: 5, Parallel: workers}
		total := len(e.Study(opt).Cells)
		seen := map[string]time.Duration{}
		opt.CellTime = func(exp, cell string, elapsed time.Duration) {
			if exp != "fig6" {
				t.Errorf("cell time for experiment %q", exp)
			}
			if _, dup := seen[cell]; dup {
				t.Errorf("cell %q timed twice", cell)
			}
			if elapsed < 0 {
				t.Errorf("cell %q has negative elapsed %v", cell, elapsed)
			}
			seen[cell] = elapsed
		}
		e.Run(opt)
		if len(seen) != total {
			t.Fatalf("parallel=%d: %d cell times, want %d", workers, len(seen), total)
		}
	}
}

// TestExecutorProgress checks the per-cell progress callback: one call per
// cell, done counting 1..total, and a total matching the plan, both
// sequentially and in parallel (callbacks are serialized by the executor,
// so the trace needs no locking).
func TestExecutorProgress(t *testing.T) {
	e, ok := Get("fig6")
	if !ok {
		t.Fatal("fig6 not registered")
	}
	for _, workers := range []int{1, 3} {
		opt := Options{Quick: true, Short: testing.Short(), Seed: 3, Parallel: workers}
		total := len(e.Study(opt).Cells)
		type tick struct {
			exp, cell   string
			done, total int
		}
		var trace []tick
		opt.Progress = func(exp, cell string, done, total int) {
			trace = append(trace, tick{exp, cell, done, total})
		}
		e.Run(opt)
		if len(trace) != total {
			t.Fatalf("parallel=%d: %d progress calls, want %d", workers, len(trace), total)
		}
		for i, tk := range trace {
			if tk.done != i+1 || tk.total != total || tk.exp != "fig6" || tk.cell == "" {
				t.Errorf("parallel=%d: tick %d = %+v", workers, i, tk)
			}
		}
	}
}
