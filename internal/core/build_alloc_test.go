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

// TestBuildAllocationsDoNotScaleWithRows builds and closes the benchmark's
// control deployment — 24 LocalOnly islands — at 24k and at 2.4M rows. Every
// index is bulk-loaded from per-level slabs, so the larger build allocates
// only what its indexes' extra level costs.
func TestBuildAllocationsDoNotScaleWithRows(t *testing.T) {
	const islands = 24
	build := func(rows int64) (tables int, mallocs uint64) {
		cfg := DefaultConfig(topology.QuadSocket(), islands, rows)
		cfg.LocalOnly = true
		// The first build fills the process's free list of Page-struct
		// slabs; count the second.
		NewDeployment(cfg).Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewDeployment(cfg).Close()
		runtime.ReadMemStats(&after)
		return len(cfg.Tables), after.Mallocs - before.Mallocs
	}
	tables, small := build(24000)
	_, large := build(2400000)
	t.Logf("build+close allocates %d objects at 24k rows, %d at 2.4M", small, large)
	if bound := small + uint64(buildAllocSlack*islands*tables); large > bound {
		t.Errorf("build+close at 2.4M rows allocates %d objects, want <= %d (%d at 24k rows + %d per instance and table)",
			large, bound, small, buildAllocSlack)
	}
}
