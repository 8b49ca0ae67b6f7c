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

// BenchmarkRWFirstContended is the first contended acquire of a latch that
// was never contended before, as on a page new to the buffer pool: one proc
// holds a zero-value RW exclusively while another queues for it in shared
// mode, then both move on to the next fresh latch. A latch whose queue is a
// slice allocates its first array here; one queued through the waiting
// proc's own wait node allocates nothing (CI gates on 0 allocs/op).
func BenchmarkRWFirstContended(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	latches := make([]RW, 64)
	var contended uint64
	k.Spawn("holder", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		for i := range b.N {
			l := &latches[i%len(latches)]
			*l = RW{}
			l.AcquireExclusive(ctx)
			p.Advance(1000)
			l.ReleaseExclusive(ctx)
			p.Advance(1000)
		}
	})
	k.Spawn("waiter", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		for i := range b.N {
			l := &latches[i%len(latches)]
			for _, held := l.Holders(); !held; _, held = l.Holders() {
				p.Advance(100)
			}
			l.AcquireShared(ctx)
			contended += l.Contended
			l.ReleaseShared(ctx)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	if contended != uint64(b.N) {
		b.Fatalf("%d of %d first acquires contended, want all", contended, b.N)
	}
}
