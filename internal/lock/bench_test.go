package lock

import (
	"testing"

	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// BenchmarkAcquireRelease measures one uncontended transaction's locking: a
// table intent lock, ten row locks, then ReleaseAll — head lookups in the
// bucket chains, the held set, and the recycled heads. Must report 0
// allocs/op.
func BenchmarkAcquireRelease(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	m := NewManager(true)
	k.Spawn("txn", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		txn := func(owner uint64) {
			if err := m.Acquire(ctx, owner, Key{Space: 1, ID: TableLock}, IX); err != nil {
				b.Fatal(err)
			}
			for row := int64(0); row < 10; row++ {
				if err := m.Acquire(ctx, owner, Key{Space: 1, ID: int64(owner)*10 + row}, X); err != nil {
					b.Fatal(err)
				}
			}
			m.ReleaseAll(ctx, owner)
		}
		txn(0) // grow the free lists and the held set's capacity
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			txn(uint64(i))
		}
		b.StopTimer()
	})
	k.Run()
}
