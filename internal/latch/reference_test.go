package latch

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// refRW is the latch as it was before its queue shifted down on dequeue and
// then became intrusive: a slice of waiters that reslices the granted ones
// off the front, so the queue's capacity shrinks with every contended
// handoff. It is kept, verbatim but for the name, as the reference
// TestRWMatchesReference drives side by side with RW.
type refRW struct {
	readers int
	writer  *sim.Proc
	queue   []waiter

	Acquires  uint64
	Contended uint64
}

type waiter struct {
	p  *sim.Proc
	ex bool
}

// AcquireShared latches the page for reading, blocking while a writer holds
// it or waits ahead (writers are not starved).
func (l *refRW) AcquireShared(ctx *exec.Ctx) {
	l.Acquires++
	ctx.Charge(AcquireCPU)
	if l.writer == nil && len(l.queue) == 0 {
		l.readers++
		return
	}
	l.Contended++
	l.queue = append(l.queue, waiter{p: ctx.P, ex: false})
	prev := ctx.Bucket(exec.BLatch)
	ctx.Block(func() {
		for !l.grantedShared(ctx.P) {
			ctx.P.Park()
		}
	})
	ctx.Bucket(prev)
}

// AcquireExclusive latches the page for writing.
func (l *refRW) AcquireExclusive(ctx *exec.Ctx) {
	l.Acquires++
	ctx.Charge(AcquireCPU)
	if l.writer == nil && l.readers == 0 && len(l.queue) == 0 {
		l.writer = ctx.P
		return
	}
	l.Contended++
	l.queue = append(l.queue, waiter{p: ctx.P, ex: true})
	prev := ctx.Bucket(exec.BLatch)
	ctx.Block(func() {
		for l.writer != ctx.P {
			ctx.P.Park()
		}
	})
	ctx.Bucket(prev)
}

func (l *refRW) grantedShared(p *sim.Proc) bool {
	if l.writer != nil {
		return false
	}
	// Granted once dequeued by admit().
	for _, w := range l.queue {
		if w.p == p {
			return false
		}
	}
	return true
}

// ReleaseShared releases a read latch.
func (l *refRW) ReleaseShared(ctx *exec.Ctx) {
	if l.readers <= 0 {
		panic("latch: ReleaseShared without holders")
	}
	l.readers--
	if l.readers == 0 {
		l.admit()
	}
}

// ReleaseExclusive releases a write latch.
func (l *refRW) ReleaseExclusive(ctx *exec.Ctx) {
	if l.writer != ctx.P {
		panic("latch: ReleaseExclusive by non-holder")
	}
	l.writer = nil
	l.admit()
}

// admit grants the head of the queue: one writer, or a maximal batch of
// consecutive readers.
func (l *refRW) admit() {
	if len(l.queue) == 0 || l.writer != nil {
		return
	}
	if l.queue[0].ex {
		if l.readers > 0 {
			return
		}
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.writer = w.p
		w.p.Unpark()
		return
	}
	for len(l.queue) > 0 && !l.queue[0].ex {
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.readers++
		w.p.Unpark()
	}
}

// Holders returns current (readers, hasWriter) for assertions in tests.
func (l *refRW) Holders() (int, bool) { return l.readers, l.writer != nil }

// rwLatch is what latchScript drives: RW or refRW.
type rwLatch interface {
	AcquireShared(*exec.Ctx)
	AcquireExclusive(*exec.Ctx)
	ReleaseShared(*exec.Ctx)
	ReleaseExclusive(*exec.Ctx)
	Holders() (int, bool)
}

// latchScript runs procs random shared/exclusive acquire-hold-release cycles
// over one latch and returns the transcript: every grant and release with its
// proc, mode, holders and virtual time, each proc's latch-wait time, and the
// kernel's final clock and event count. stats appends the latch's counters.
func latchScript(seed int64, procs int, l rwLatch, stats func() string) []string {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	rng := rand.New(rand.NewSource(seed))
	var log []string
	ctxs := make([]*exec.Ctx, procs)
	for i := range procs {
		prng := rand.New(rand.NewSource(rng.Int63()))
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			ctx := ctxFor(p, model)
			ctxs[i] = ctx
			for n := 4 + prng.Intn(12); n > 0; n-- {
				p.Advance(sim.Time(prng.Intn(60)))
				ex := prng.Intn(3) == 0
				if ex {
					l.AcquireExclusive(ctx)
				} else {
					l.AcquireShared(ctx)
				}
				r, w := l.Holders()
				log = append(log, fmt.Sprintf("p%d in ex=%v @%d readers=%d writer=%v", i, ex, p.Now(), r, w))
				p.Advance(sim.Time(prng.Intn(100)))
				if ex {
					l.ReleaseExclusive(ctx)
				} else {
					l.ReleaseShared(ctx)
				}
				log = append(log, fmt.Sprintf("p%d out @%d", i, p.Now()))
			}
		})
	}
	k.Run()
	for i, ctx := range ctxs {
		log = append(log, fmt.Sprintf("p%d latch time %d", i, ctx.BD[exec.BLatch]))
	}
	return append(log, stats(), fmt.Sprintf("now=%d events=%d live=%d", k.Now(), k.Events(), k.LiveProcs()))
}

// TestRWMatchesReference drives RW and the reslicing latch it replaced through
// the same random schedules over 2 to 8 procs: every grant, its order and
// virtual time, every wait and both counters must match.
func TestRWMatchesReference(t *testing.T) {
	var contended uint64
	for seed := int64(0); seed < 200; seed++ {
		procs := 2 + int(seed%7)
		var l RW
		var ref refRW
		got := latchScript(seed, procs, &l, func() string {
			return fmt.Sprintf("acquires=%d contended=%d", l.Acquires, l.Contended)
		})
		want := latchScript(seed, procs, &ref, func() string {
			return fmt.Sprintf("acquires=%d contended=%d", ref.Acquires, ref.Contended)
		})
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: transcripts diverge at line %d:\n got %s\nwant %s", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: transcript lengths %d, want %d", seed, len(got), len(want))
		}
		contended += l.Contended
	}
	if contended == 0 {
		t.Error("no schedule contended the latch; the comparison needs queued waiters")
	}
}
