package harness

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"islands/internal/resultstore"
)

// dispatchOrder returns the indices in which the parallel executor starts
// cells: by descending cost estimate, declaration order within equal
// estimates. Starting the known-long cells (disk-bound fig14 points,
// forced-full fig3 windows) first keeps them off the tail of the schedule,
// where one straggler would dominate the plan's critical path at high
// worker counts. With a store, a cell's estimate is its learned wall-clock
// from earlier runs (hintFor) rather than the static CostHint rank;
// estimates only move wall-clock, never results.
func dispatchOrder(cells []Cell, st *resultstore.Store) []int {
	order := make([]int, len(cells))
	hints := make([]float64, len(cells))
	for i := range order {
		order[i] = i
		hints[i] = hintFor(st, &cells[i])
	}
	sort.SliceStable(order, func(a, b int) bool {
		return hints[order[a]] > hints[order[b]]
	})
	return order
}

// Run executes the study's cells and assembles a fresh Result (the tables
// are cloned, so one Study may be run many times, and concurrently).
//
// Cell execution order is unspecified: opt.Parallel workers (default
// runtime.GOMAXPROCS) pull cells from a shared dispatch order (longest
// hinted first) and run each cell's simulation on one worker goroutine.
// Assembly is nonetheless deterministic — metrics are stored by cell index,
// emits are applied in declaration order after every cell finished, and
// Finalize runs last — so a parallel run is cell-for-cell identical to a
// sequential one (TestParallelMatchesSequential asserts this for every
// registered experiment; the determinism contract of DESIGN.md). The
// executor also measures each cell's wall-clock and reports it through
// opt.CellTime; under opt.Store the wall-clocks are persisted as learned
// dispatch hints and cell results are memoized by content-addressed key, so
// a warm run serves hits without simulating.
func (s *Study) Run(opt Options) *Result {
	res := &Result{ID: s.ID, Title: s.Title, Ref: s.Ref,
		Notes: s.Notes, Tables: cloneTables(s.Tables)}
	n := len(s.Cells)
	metrics := make([]Metrics, n)

	workers := opt.Parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	// Auto kernel workers: intra-cell kernel workers and cell-level workers
	// compete for the same CPUs, so by default a cell's deployment runs its
	// windows on extra goroutines only when cells run one at a time.
	// Explicit opt.Shards settings pass through to every cell's core.Config
	// untouched.
	if opt.Shards == 0 {
		if workers > 1 {
			opt.Shards = 1
		} else {
			opt.Shards = -1
		}
	}

	// report serializes the CellCache, CellTime and Progress callbacks (in
	// that order, so observers can correlate them per cell); done counts
	// completions, which under parallelism is not the cell index.
	var mu sync.Mutex
	done := 0
	report := func(i int, elapsed time.Duration, hit bool) {
		if opt.Progress == nil && opt.CellTime == nil && opt.CellCache == nil {
			return
		}
		mu.Lock()
		done++
		if opt.CellCache != nil {
			opt.CellCache(s.ID, s.Cells[i].Name, hit)
		}
		if opt.CellTime != nil {
			opt.CellTime(s.ID, s.Cells[i].Name, elapsed)
		}
		if opt.Progress != nil {
			opt.Progress(s.ID, s.Cells[i].Name, done, n)
		}
		mu.Unlock()
	}

	runCell := func(i int) {
		start := time.Now()
		c := &s.Cells[i]
		if opt.Store != nil {
			k := cellKey(s.ID, c, opt)
			if _, ok := opt.Store.Get(k, &metrics[i]); ok {
				report(i, time.Since(start), true)
				return
			}
			metrics[i] = c.Run(opt)
			elapsed := time.Since(start)
			// Store errors (a full disk, a revoked handle) must not fail the
			// run: the cache is an accelerator, the simulation result stands.
			_ = opt.Store.Put(k, c.Name, &metrics[i], elapsed)
			if elapsed >= minHintElapsed {
				_ = opt.Store.PutHint(c.Name, elapsed)
			}
			report(i, elapsed, false)
			return
		}
		metrics[i] = c.Run(opt)
		report(i, time.Since(start), false)
	}

	if workers <= 1 {
		for i := range s.Cells {
			runCell(i)
		}
	} else {
		order := dispatchOrder(s.Cells, opt.Store)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= n {
						return
					}
					runCell(order[k])
				}
			}()
		}
		wg.Wait()
	}

	for i := range s.Cells {
		for _, e := range s.Cells[i].Emits {
			res.Tables[e.Table].Set(e.Row, e.Col, e.Metric(metrics[i]))
		}
	}
	if s.Finalize != nil {
		s.Finalize(res, metrics)
	}
	return res
}
