package harness

import (
	"runtime"
	"testing"
)

// TestShardedMatchesUnsharded is the deployment-level statement of the
// kernel's determinism contract: for every registered experiment —
// including the fault-injection studies, whose per-window series feed their
// tables — a quick run on the classic kernel (every island on one event
// partition, one heap: the explicit single-partition baseline) produces
// tables bit-identical to the default (one partition per island, windows run
// inline on the cell's goroutine), to 4 kernel workers, and to the kernel
// choosing the worker count (-1). Partitioning and workers, like cell-level
// parallelism, must only ever move wall-clock time. The CI race job runs
// this under -race, covering the multi-worker window path; the
// fingerprint-diff job asserts the same property across processes via
// islandsprobe -shards.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			opt := Options{Quick: true, Short: testing.Short(), Seed: 11, Parallel: 1}
			ref := opt
			ref.Shards = 1
			ref.singlePartition = true
			want := e.Run(ref)
			variants := []int{1, 4}
			if runtime.GOMAXPROCS(0) > 1 {
				// Auto (-1) resolves to min(islands, GOMAXPROCS); on a
				// single-CPU host that is the inline default again, so the
				// extra leg only buys coverage on multi-core machines.
				variants = append(variants, -1)
			}
			for _, shards := range variants {
				got := opt
				got.Shards = shards
				if err := equalResults(want, e.Run(got)); err != nil {
					t.Fatalf("shards=%d run diverges from the single-partition kernel: %v", shards, err)
				}
			}
		})
	}
}
