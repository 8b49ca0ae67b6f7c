package latch

import (
	"fmt"
	"runtime"
	"testing"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

func ctxFor(p *sim.Proc, m *mem.Model) *exec.Ctx {
	c := exec.New(p, 0, m, nil)
	c.BD = &exec.Breakdown{}
	return c
}

func TestLatchSharedReadersOverlap(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var l RW
	var maxReaders int
	for i := 0; i < 4; i++ {
		k.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			ctx := ctxFor(p, model)
			l.AcquireShared(ctx)
			if r, _ := l.Holders(); r > maxReaders {
				maxReaders = r
			}
			p.Advance(100)
			l.ReleaseShared(ctx)
		})
	}
	k.Run()
	if maxReaders != 4 {
		t.Errorf("max concurrent readers = %d, want 4", maxReaders)
	}
}

func TestLatchWriterExcludesAll(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var l RW
	var events []string
	k.Spawn("w", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		l.AcquireExclusive(ctx)
		events = append(events, fmt.Sprintf("w-in@%d", p.Now()))
		p.Advance(100)
		events = append(events, fmt.Sprintf("w-out@%d", p.Now()))
		l.ReleaseExclusive(ctx)
	})
	k.Spawn("r", func(p *sim.Proc) {
		p.Advance(10)
		ctx := ctxFor(p, model)
		l.AcquireShared(ctx)
		events = append(events, fmt.Sprintf("r-in@%d", p.Now()))
		l.ReleaseShared(ctx)
	})
	k.Run()
	if len(events) != 3 || events[2][:4] != "r-in" {
		t.Fatalf("events = %v", events)
	}
	var rIn sim.Time
	fmt.Sscanf(events[2], "r-in@%d", &rIn)
	if rIn < 100 {
		t.Errorf("reader entered at %v, before writer exit", rIn)
	}
}

func TestLatchWriterNotStarvedByReaders(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var l RW
	var writerAt sim.Time
	var lateReaderAt sim.Time
	k.Spawn("r1", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		l.AcquireShared(ctx)
		p.Advance(100)
		l.ReleaseShared(ctx)
	})
	k.Spawn("w", func(p *sim.Proc) {
		p.Advance(10)
		ctx := ctxFor(p, model)
		l.AcquireExclusive(ctx)
		writerAt = p.Now()
		p.Advance(50)
		l.ReleaseExclusive(ctx)
	})
	k.Spawn("r2", func(p *sim.Proc) {
		p.Advance(20) // arrives while writer queued: must wait behind it
		ctx := ctxFor(p, model)
		l.AcquireShared(ctx)
		lateReaderAt = p.Now()
		l.ReleaseShared(ctx)
	})
	k.Run()
	if writerAt < 100 {
		t.Errorf("writer at %v, want >= 100", writerAt)
	}
	if lateReaderAt < writerAt+50 {
		t.Errorf("late reader at %v jumped the writer (writer at %v)", lateReaderAt, writerAt)
	}
}

func TestLatchContentionBilledToBLatch(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var l RW
	var bd *exec.Breakdown
	k.Spawn("w1", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		l.AcquireExclusive(ctx)
		p.Advance(500)
		l.ReleaseExclusive(ctx)
	})
	k.Spawn("w2", func(p *sim.Proc) {
		p.Advance(1)
		ctx := ctxFor(p, model)
		bd = ctx.BD
		l.AcquireExclusive(ctx)
		l.ReleaseExclusive(ctx)
	})
	k.Run()
	if bd[exec.BLatch] < 400 {
		t.Errorf("BLatch = %v, want ~499", bd[exec.BLatch])
	}
	if l.Contended != 1 {
		t.Errorf("Contended = %d, want 1", l.Contended)
	}
}

func TestLatchReleaseWithoutHoldPanics(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var l RW
	k.Spawn("bad", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		l.ReleaseShared(ctx)
	})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	k.Run()
}

// TestFirstContendedAcquireAllocatesNothing: a zero-value latch — a page new
// to the buffer pool — queues its first waiters without allocating: one proc
// holds each of 200 fresh latches exclusively, latch i from virtual time
// 2000i for 1000 ns, while two others queue for it at 2000i+500, one shared
// and one exclusive.
func TestFirstContendedAcquireAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // count this test's allocations alone
	const fresh = 200
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	latches := make([]RW, fresh+1)
	var before, after runtime.MemStats
	var contended uint64
	k.Spawn("holder", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		for i := range latches {
			if i == 1 {
				runtime.ReadMemStats(&before) // latch 0 warmed the kernel's queues
			}
			p.Advance(sim.Time(i)*2000 - p.Now())
			latches[i].AcquireExclusive(ctx)
			p.Advance(1000)
			latches[i].ReleaseExclusive(ctx)
		}
		runtime.ReadMemStats(&after)
	})
	for _, ex := range []bool{false, true} {
		k.Spawn("waiter", func(p *sim.Proc) {
			ctx := ctxFor(p, model)
			for i := range latches {
				p.Advance(sim.Time(i)*2000 + 500 - p.Now())
				l := &latches[i]
				if ex {
					l.AcquireExclusive(ctx)
					l.ReleaseExclusive(ctx)
				} else {
					l.AcquireShared(ctx)
					l.ReleaseShared(ctx)
				}
			}
		})
	}
	k.Run()
	for i := range latches {
		contended += latches[i].Contended
	}
	if contended != 2*uint64(len(latches)) {
		t.Fatalf("%d of %d waiters' acquires contended, want all", contended, 2*len(latches))
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d first contended acquires allocated %d objects, want 0", 2*fresh, n)
	}
}
