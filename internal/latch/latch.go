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

// RW is a FIFO reader-writer latch. The zero value is unlatched.
//
// Its waiters form an intrusive queue through their procs' wait nodes
// (sim.WaitNode), so a contended acquire allocates nothing, not even on a
// latch contended for the first time.
type RW struct {
	readers int
	writer  *sim.Proc
	head    *sim.Proc // first waiter; nil when none waits
	tail    *sim.Proc

	Acquires  uint64
	Contended uint64
}

// AcquireShared latches the page for reading, blocking while a writer holds
// it or waits ahead (writers are not starved).
func (l *RW) AcquireShared(ctx *exec.Ctx) {
	l.Acquires++
	ctx.Charge(AcquireCPU)
	if l.writer == nil && l.head == nil {
		l.readers++
		return
	}
	l.Contended++
	l.enqueue(ctx.P, false)
	prev := ctx.Bucket(exec.BLatch)
	ctx.Block(func() {
		// Granted once admit dequeued it and no writer got in since.
		for ctx.P.Wait.Queued || l.writer != nil {
			ctx.P.Park()
		}
	})
	ctx.Bucket(prev)
}

// AcquireExclusive latches the page for writing.
func (l *RW) AcquireExclusive(ctx *exec.Ctx) {
	l.Acquires++
	ctx.Charge(AcquireCPU)
	if l.writer == nil && l.readers == 0 && l.head == nil {
		l.writer = ctx.P
		return
	}
	l.Contended++
	l.enqueue(ctx.P, true)
	prev := ctx.Bucket(exec.BLatch)
	ctx.Block(func() {
		for l.writer != ctx.P {
			ctx.P.Park()
		}
	})
	ctx.Bucket(prev)
}

// enqueue appends p's wait node to the queue.
func (l *RW) enqueue(p *sim.Proc, ex bool) {
	p.Wait = sim.WaitNode{Exclusive: ex, Queued: true}
	if l.tail == nil {
		l.head = p
	} else {
		l.tail.Wait.Next = p
	}
	l.tail = p
}

// dequeue takes the first waiter off the queue.
func (l *RW) dequeue() *sim.Proc {
	p := l.head
	l.head = p.Wait.Next
	if l.head == nil {
		l.tail = nil
	}
	p.Wait = sim.WaitNode{}
	return p
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
	if l.head == nil || l.writer != nil {
		return
	}
	if l.head.Wait.Exclusive {
		if l.readers > 0 {
			return
		}
		l.writer = l.dequeue()
		l.writer.Unpark()
		return
	}
	for l.head != nil && !l.head.Wait.Exclusive {
		l.readers++
		l.dequeue().Unpark()
	}
}

// Holders returns current (readers, hasWriter) for assertions in tests.
func (l *RW) Holders() (int, bool) { return l.readers, l.writer != nil }
