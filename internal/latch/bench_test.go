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

// BenchmarkRWContended is eight procs — five writers, three readers — taking
// one latch in turn, so nearly every acquire queues and every release hands
// the latch on: one op is one acquire and release by each proc. The queue
// keeps its capacity through the handoffs, so it must not allocate (CI gates
// on it); a queue that reslices its front away reallocates every few
// handoffs.
func BenchmarkRWContended(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var l RW
	for i := range 8 {
		ex := i%3 != 2
		k.Spawn("w", func(p *sim.Proc) {
			ctx := ctxFor(p, model)
			for range b.N {
				if ex {
					l.AcquireExclusive(ctx)
					p.Advance(50)
					l.ReleaseExclusive(ctx)
				} else {
					l.AcquireShared(ctx)
					p.Advance(50)
					l.ReleaseShared(ctx)
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	if l.Contended < l.Acquires/2 {
		b.Fatalf("%d of %d acquires contended, want most", l.Contended, l.Acquires)
	}
}
