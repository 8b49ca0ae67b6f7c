package latch

import (
	"testing"

	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// BenchmarkRWPair is an uncontended shared then exclusive acquire and
// release of one latch, the shape of the benchmark's latch.rw_pair_ns
// probe. It must not allocate (CI gates on it).
func BenchmarkRWPair(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var l RW
	k.Spawn("w", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		for i := 0; i < b.N; i++ {
			l.AcquireShared(ctx)
			l.ReleaseShared(ctx)
			l.AcquireExclusive(ctx)
			l.ReleaseExclusive(ctx)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
