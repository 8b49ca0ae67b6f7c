package lock

import (
	"runtime"
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

// BenchmarkAcquireFreshKeys is one X lock on a key no one has locked yet,
// taken by transactions that hold 4096 such locks each on a fresh lock table:
// every acquire needs a new head, and the held set and the table's head slabs
// grow from empty. It reports the heap objects allocated per acquire
// (allocs/acquire; CI gates it at 0.05): a head cut from a slab of 64, with
// its first grants in the head itself, is 1/64 of an allocation.
func BenchmarkAcquireFreshKeys(b *testing.B) {
	const perTable = 4096
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var before, after runtime.MemStats
	k.Spawn("txn", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		var m *Manager
		for i := range b.N {
			if i%perTable == 0 {
				m = NewManager(true)
			}
			if err := m.Acquire(ctx, uint64(i/perTable), Key{Space: 1, ID: int64(i)}, X); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
	})
	b.ReportAllocs()
	k.Run()
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/acquire")
}

// BenchmarkSharedKeyRecycledHeads is three transactions that share-lock one
// key and X-lock twenty private keys each, then release, round after round:
// each round the shared key gets the recycled head that last served a
// private key, and its three holders outgrow the two grants a head holds
// inline. Every 32 rounds a fresh manager starts over; its first round grows
// its lists, and the 31 rounds after it must allocate nothing
// (allocs/acquire, counted over those rounds only; CI gates it at 0). A lock
// table whose heads kept their own grown arrays allocated once per round
// here, until each of the 41 heads in rotation had served the shared key.
// As in testing.AllocsPerRun, GOMAXPROCS is 1 while it runs, so no other
// goroutine's allocation lands in the count.
func BenchmarkSharedKeyRecycledHeads(b *testing.B) {
	const holders, private, perManager = 3, 20, 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var mallocs, acquires uint64
	k.Spawn("txn", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		var m *Manager
		owner := uint64(0)
		round := func() {
			for h := range holders {
				o := owner + uint64(h)
				if err := m.Acquire(ctx, o, Key{Space: 1, ID: 0}, S); err != nil {
					b.Fatal(err)
				}
				for j := range private {
					if err := m.Acquire(ctx, o, Key{Space: 1, ID: int64(1 + h*private + j)}, X); err != nil {
						b.Fatal(err)
					}
				}
			}
			for h := range holders {
				m.ReleaseAll(ctx, owner+uint64(h))
			}
			owner += holders
		}
		var before, after runtime.MemStats
		b.ResetTimer()
		for done := 0; done < b.N; {
			m = NewManager(true)
			round()
			n := min(perManager-1, b.N-done)
			runtime.ReadMemStats(&before)
			for range n {
				round()
			}
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			acquires += uint64(n * holders * (1 + private))
			done += n
		}
		b.StopTimer()
	})
	b.ReportAllocs()
	k.Run()
	b.ReportMetric(float64(mallocs)/float64(acquires), "allocs/acquire")
}
