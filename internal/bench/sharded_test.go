package bench

import (
	"fmt"
	"testing"
)

// BenchmarkShardedScaling sweeps the shared benchmark body over the worker
// ladder on the fully-connected fabric; `islandsbench -benchjson` runs the
// same body per count and writes the machine-readable record.
func BenchmarkShardedScaling(b *testing.B) {
	for _, n := range ShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			ShardedScaling(b, n)
		})
	}
}

// BenchmarkShardedScalingFabric sweeps fabric x worker count, exposing the
// windows/op metric on the fabrics where the distance-aware lookahead matrix
// actually has distances to exploit (ring, torus).
func BenchmarkShardedScalingFabric(b *testing.B) {
	for _, fabric := range Fabrics() {
		for _, n := range ShardCounts() {
			b.Run(fmt.Sprintf("fabric=%s/shards=%d", fabric, n), func(b *testing.B) {
				ShardedScalingOn(b, fabric, n)
			})
		}
	}
}

// TestShardedScalingDeterministic pins the benchmark's self-check outside
// the bench runner: one window of the scaling cell commits the same
// transaction count inline and at the full ladder width.
func TestShardedScalingDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 64-core scaling cell twice")
	}
	committed := func(shards int) uint64 {
		r := testing.Benchmark(func(b *testing.B) { ShardedScaling(b, shards) })
		return uint64(r.Extra["committed/op"])
	}
	max := ShardCounts()[len(ShardCounts())-1]
	if a, b := committed(1), committed(max); a != b || a == 0 {
		t.Fatalf("committed/op: %d inline, %d at %d workers; want equal and nonzero", a, b, max)
	}
}
