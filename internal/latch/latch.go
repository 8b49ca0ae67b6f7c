// Package latch provides virtual-time reader-writer page latches with FIFO
// fairness, modeling the short-term physical locks that protect page images
// in Shore-MT. Single-threaded instances bypass latching entirely (the
// H-Store-style optimization the paper applies to fine-grained
// shared-nothing configurations).
package latch

import (
	"islands/internal/exec"
	"islands/internal/sim"
)

// AcquireCPU is the compute cost of an uncontended latch operation.
const AcquireCPU = 40 * sim.Nanosecond

type waiter struct {
	p  *sim.Proc
	ex bool
}

// RW is a FIFO reader-writer latch. The zero value is unlatched.
type RW struct {
	readers int
	writer  *sim.Proc
	queue   []waiter

	Acquires  uint64
	Contended uint64
}

// AcquireShared latches the page for reading, blocking while a writer holds
// it or waits ahead (writers are not starved).
func (l *RW) AcquireShared(ctx *exec.Ctx) {
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
func (l *RW) AcquireExclusive(ctx *exec.Ctx) {
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

func (l *RW) grantedShared(p *sim.Proc) bool {
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
func (l *RW) ReleaseShared(ctx *exec.Ctx) {
	if l.readers <= 0 {
		panic("latch: ReleaseShared without holders")
	}
	l.readers--
	if l.readers == 0 {
		l.admit()
	}
}

// ReleaseExclusive releases a write latch.
func (l *RW) ReleaseExclusive(ctx *exec.Ctx) {
	if l.writer != ctx.P {
		panic("latch: ReleaseExclusive by non-holder")
	}
	l.writer = nil
	l.admit()
}

// admit grants the head of the queue: one writer, or a maximal batch of
// consecutive readers.
func (l *RW) admit() {
	if len(l.queue) == 0 || l.writer != nil {
		return
	}
	if l.queue[0].ex {
		if l.readers > 0 {
			return
		}
		w := l.queue[0]
		l.dequeue()
		l.writer = w.p
		w.p.Unpark()
		return
	}
	for len(l.queue) > 0 && !l.queue[0].ex {
		w := l.queue[0]
		l.dequeue()
		l.readers++
		w.p.Unpark()
	}
}

// dequeue drops the queue's first waiter. It shifts the rest down rather
// than reslicing, so the queue keeps its capacity and a later append reuses
// it instead of reallocating.
func (l *RW) dequeue() {
	n := copy(l.queue, l.queue[1:])
	l.queue[n] = waiter{}
	l.queue = l.queue[:n]
}

// Holders returns current (readers, hasWriter) for assertions in tests.
func (l *RW) Holders() (int, bool) { return l.readers, l.writer != nil }
