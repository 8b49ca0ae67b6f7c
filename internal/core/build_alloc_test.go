package core

import (
	"runtime"
	"testing"

	"islands/internal/topology"
)

// buildAllocSlack is how many more heap objects per instance and table a
// deployment of 100x the rows may allocate to build: the slabs of one more
// index level (its nodes, keys and children) and one object to spare. An
// index that allocated a node per leaf measured 29,933 objects at 2.4M rows
// against 1,277 at 24k.
const buildAllocSlack = 4

// buildBytesPerRow bounds the heap a build retains per row it adds, between
// 24k and 2.4M rows. An index that kept a 64-byte node per leaf of about 86
// keys, and a child pointer and a key per leaf in the level above, retained
// 0.93 B/row more; a range-loaded index keeps a 16-byte line per leaf nobody
// wrote, and the marginal build measured 0.23 B/row.
const buildBytesPerRow = 0.35

// TestBuildAllocationsDoNotScaleWithRows builds and closes the benchmark's
// control deployment — 24 LocalOnly islands — at 24k and at 2.4M rows. Every
// index is bulk-loaded from per-level slabs, so the larger build allocates
// only what its indexes' extra level costs, and it retains, after a
// collection, at most buildBytesPerRow per row more.
func TestBuildAllocationsDoNotScaleWithRows(t *testing.T) {
	const islands = 24
	build := func(rows int64) (tables int, mallocs, retained uint64) {
		cfg := DefaultConfig(topology.QuadSocket(), islands, rows)
		cfg.LocalOnly = true
		// The first build fills the process's free list of Page-struct
		// slabs; count the second.
		NewDeployment(cfg).Close()
		runtime.GC()
		var before, built, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDeployment(cfg)
		runtime.GC()
		runtime.ReadMemStats(&built)
		d.Close()
		runtime.ReadMemStats(&after)
		return len(cfg.Tables), after.Mallocs - before.Mallocs, built.HeapAlloc - before.HeapAlloc
	}
	const smallRows, largeRows = 24000, 2400000
	tables, small, smallHeap := build(smallRows)
	_, large, largeHeap := build(largeRows)
	t.Logf("build+close allocates %d objects at 24k rows, %d at 2.4M", small, large)
	if bound := small + uint64(buildAllocSlack*islands*tables); large > bound {
		t.Errorf("build+close at 2.4M rows allocates %d objects, want <= %d (%d at 24k rows + %d per instance and table)",
			large, bound, small, buildAllocSlack)
	}
	perRow := (float64(largeHeap) - float64(smallHeap)) / (largeRows - smallRows)
	t.Logf("a build retains %d B at 24k rows, %d B at 2.4M: %.3f B per added row", smallHeap, largeHeap, perRow)
	if perRow > buildBytesPerRow {
		t.Errorf("a build retains %.3f B per added row between 24k and 2.4M rows, want <= %v", perRow, buildBytesPerRow)
	}
}
