package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"islands/internal/core"
	"islands/internal/harness"
)

// sweepRep is what one repetition of study_sweep_store measured: a cold run
// of the study into a fresh store (every cell simulates), then a warm run
// from the reopened store (every cell is a hit and nothing simulates).
type sweepRep struct {
	setup, cold, warm, total time.Duration
	self                     time.Duration // cold Study.Run with no cell in flight
	mallocs                  uint64        // heap objects allocated by the cold run
	cells                    int
	sum                      core.Measurement // summed over the cold cells
	digest                   string
}

// cellSpan is one wrapped Cell.Run of the cold run.
type cellSpan struct {
	index      int
	start, end time.Time
}

// runSweepRep performs one repetition in a temporary store directory under
// dir, which is removed on every path, also a failing one.
func runSweepRep(z sizing, seed int64, dir string, rep int, tr *tracer) (r sweepRep, err error) {
	tmp, err := os.MkdirTemp(dir, "store-*")
	if err != nil {
		return r, fmt.Errorf("repetition %d: %w", rep, err)
	}
	defer os.RemoveAll(tmp)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("repetition %d panicked: %v", rep, p)
		}
	}()

	t0 := time.Now()
	st, err := harness.OpenStore(tmp)
	if err != nil {
		return r, fmt.Errorf("repetition %d: open store: %w", rep, err)
	}
	tOpen := time.Now()

	// Wrap every Cell.Run: the wrapper is how committed transactions and the
	// per-cell spans are collected from outside the harness.
	study := sweepStudy(z)
	r.cells = len(study.Cells)
	var mu sync.Mutex
	var spans []cellSpan
	perCell := make([]uint64, r.cells)
	for i := range study.Cells {
		i, run := i, study.Cells[i].Run
		study.Cells[i].Run = func(opt harness.Options) harness.Metrics {
			start := time.Now()
			m := run(opt)
			end := time.Now()
			mu.Lock()
			spans = append(spans, cellSpan{i, start, end})
			perCell[i] = m.M.Committed
			addMeasurement(&r.sum, &m.M)
			mu.Unlock()
			return m
		}
	}
	var hits, misses int
	opt := harness.Options{Quick: true, Seed: seed, Parallel: runtime.GOMAXPROCS(0), Store: st,
		CellCache: func(_, _ string, hit bool) {
			if hit {
				hits++
			} else {
				misses++
			}
		}}

	w := startWatch()
	coldRes := study.Run(opt)
	cold := w.stop()
	tCold0, tCold1 := w.t0, w.t0.Add(cold.elapsed)
	if err := st.Close(); err != nil {
		return r, fmt.Errorf("repetition %d: close store: %w", rep, err)
	}
	tClose := time.Now()
	coldMisses, coldHits := misses, hits
	simulated := len(spans)

	st, err = harness.OpenStore(tmp)
	if err != nil {
		return r, fmt.Errorf("repetition %d: reopen store: %w", rep, err)
	}
	tReopen := time.Now()
	hits, misses = 0, 0
	opt.Store = st
	warmRes := study.Run(opt)
	tWarm := time.Now()
	if err := st.Close(); err != nil {
		return r, fmt.Errorf("repetition %d: close store: %w", rep, err)
	}
	if err := os.RemoveAll(tmp); err != nil {
		return r, fmt.Errorf("repetition %d: %w", rep, err)
	}
	tEnd := time.Now()

	var coldFP, warmFP bytes.Buffer
	coldRes.Fingerprint(&coldFP)
	warmRes.Fingerprint(&warmFP)
	switch {
	case coldMisses != r.cells || coldHits != 0:
		return r, fmt.Errorf("repetition %d: cold run reported %d misses and %d hits, want %d and 0", rep, coldMisses, coldHits, r.cells)
	case misses != 0 || hits != r.cells || len(spans) != simulated:
		return r, fmt.Errorf("repetition %d: warm run reported %d hits, %d misses and %d simulations, want %d, 0 and 0",
			rep, hits, misses, len(spans)-simulated, r.cells)
	case !bytes.Equal(coldFP.Bytes(), warmFP.Bytes()):
		return r, fmt.Errorf("repetition %d: warm fingerprint differs from cold", rep)
	case r.sum.Committed == 0:
		return r, fmt.Errorf("repetition %d committed no transaction", rep)
	}

	var first time.Time
	for _, s := range spans {
		if first.IsZero() || s.start.Before(first) {
			first = s.start
		}
	}
	r.setup = first.Sub(t0)
	r.cold, r.warm, r.mallocs = cold.elapsed, tWarm.Sub(tReopen), cold.mallocs
	r.total = tEnd.Sub(t0)
	r.digest = digestOf(struct {
		Fingerprint string
		PerCell     []uint64
	}{coldFP.String(), perCell})

	cover := make([][2]time.Duration, len(spans))
	for i, s := range spans {
		cover[i] = [2]time.Duration{s.start.Sub(tCold0), s.end.Sub(tCold0)}
	}
	r.self = cold.elapsed - unionLen(0, cold.elapsed, cover)

	root := tr.add("benchmark.repetition", t0, tEnd, -1, rep, 0)
	tr.add("harness.OpenStore", t0, tOpen, root, rep, 0)
	run := tr.add("harness.Study.Run(cold)", tCold0, tCold1, root, rep, 0)
	for _, s := range spans {
		tr.add("harness.Cell.Run", s.start, s.end, run, rep, 1+s.index)
	}
	tr.add("resultstore.Close", tCold1, tClose, root, rep, 0)
	tr.add("harness.OpenStore(reopen)", tClose, tReopen, root, rep, 0)
	tr.add("harness.Study.Run(warm)", tReopen, tWarm, root, rep, 0)
	tr.add("resultstore.Close+remove", tWarm, tEnd, root, rep, 0)
	return r, nil
}

// addMeasurement accumulates the simulated counters the per-layer metrics
// read; ratios are recomputed from the sums.
func addMeasurement(sum, m *core.Measurement) {
	sum.Committed += m.Committed
	sum.Aborted += m.Aborted
	sum.Local += m.Local
	sum.Multisite += m.Multisite
	sum.TxnTime += m.TxnTime
	sum.Msgs += m.Msgs
	sum.CrossMsgs += m.CrossMsgs
	sum.SubWork += m.SubWork
	sum.Prepares += m.Prepares
	sum.Breakdown.Add(&m.Breakdown)
	sum.Mem.Add(m.Mem)
}
