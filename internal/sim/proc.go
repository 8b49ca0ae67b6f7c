package sim

import (
	"fmt"
	"iter"
)

// killedError is the sentinel panic value used to unwind a Proc's coroutine
// when the kernel is closed.
type killedError struct{}

func (killedError) Error() string { return "sim: proc killed by kernel close" }

var errKilled = killedError{}

// Proc is a simulated thread. Its function runs on a dedicated coroutine
// (an iter.Pull goroutine that the kernel resumes with a direct switch, not
// through the Go scheduler), and the kernel guarantees that at most one Proc
// per shard executes at a time, so Proc code may freely touch simulation
// state belonging to its own shard without synchronization.
//
// A Proc consumes virtual time only through Advance (or primitives built on
// it); plain Go computation between kernel interactions is instantaneous in
// virtual time.
type Proc struct {
	k    *Kernel
	dom  *Domain
	name string
	id   int

	// next resumes the coroutine; yield (captured on first resume) hands
	// control back; stop unwinds the coroutine for kernel Close.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	started bool
	dead    bool
	fn      func(*Proc)

	// Wait is the proc's node in a wait queue kept outside the kernel, such
	// as a page latch's (package latch).
	Wait WaitNode
}

// WaitNode links a Proc into a FIFO of waiters through the Proc itself. A
// Proc waits for one thing at a time, so one node per Proc queues it
// anywhere without an allocation.
type WaitNode struct {
	Next      *Proc // the proc queued behind this one
	Exclusive bool  // waiting for exclusive access
	Queued    bool  // still waiting: not yet granted
}

func (k *Kernel) newProc(d *Domain, name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, dom: d, name: name, fn: fn}
	p.next, p.stop = iter.Pull(p.body)
	k.procMu.Lock()
	p.id = len(k.procs)
	k.procs = append(k.procs, p)
	k.procMu.Unlock()
	return p
}

// Spawn creates a Proc on the default domain that begins running fn at the
// current virtual time. The name is for diagnostics only.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.domains[0].Spawn(name, fn)
}

// SpawnAt is Spawn with a start delay.
func (k *Kernel) SpawnAt(d Time, name string, fn func(*Proc)) *Proc {
	return k.domains[0].SpawnAt(d, name, fn)
}

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the Proc's kernel-unique identifier.
func (p *Proc) ID() int { return p.id }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Domain returns the determinism domain the Proc belongs to.
func (p *Proc) Domain() *Domain { return p.dom }

// Now returns the current virtual time on the Proc's shard.
func (p *Proc) Now() Time { return p.dom.sh.now }

// body is the coroutine entry point.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.dead = true
		if r := recover(); r != nil {
			if _, ok := r.(killedError); !ok {
				panic(r) // real failure: re-raise into the kernel's resume
			}
		}
	}()
	p.fn(p)
}

// resume hands control to p's coroutine until it parks, unless p finished.
func (p *Proc) resume() {
	if !p.dead {
		p.started = true
		p.next()
	}
}

// yieldWait hands control back to p's resumer and blocks until resumed.
func (p *Proc) yieldWait() {
	if !p.yield(struct{}{}) {
		// The kernel called stop (Close): unwind the coroutine stack.
		panic(errKilled)
	}
}

// Advance consumes d of virtual time. Negative d is treated as zero.
//
// Fast path: when every event due before now+d on this shard is a
// kernel-context callback (and the shard's run horizon covers the target),
// the Proc runs those callbacks inline, in canonical order, and bumps the
// clock itself — zero coroutine switches and zero heap traffic for its own
// wakeup. The advancing Proc temporarily is its shard's event loop, and
// stays it (shard.own) when another Proc is due first; only past the
// horizon does it park in the heap and hand control back to the kernel.
// The commonest case of all, nothing due before the target, is TryAdvance.
// Event order, timestamps, and Kernel.Events() are identical on every path.
func (p *Proc) Advance(d Time) {
	if p.TryAdvance(d) {
		return
	}
	if d < 0 {
		d = 0
	}
	dom := p.dom
	sh := dom.sh
	target := sh.now + d
	// Reserve our wake event's key before running anything inline, so events
	// that inline callbacks schedule at exactly `target` order after us —
	// just as they would if we had parked first.
	dom.seq++
	seq := dom.seq
	if target <= sh.horizon {
		for {
			if sh.heap.empty() {
				sh.now = target
				sh.nEvents++ // our elided wake event
				return
			}
			min := &sh.heap.ev[0]
			if min.at > target ||
				(min.at == target && (min.dom > dom.id || (min.dom == dom.id && min.seq > seq))) {
				sh.now = target
				sh.nEvents++
				return
			}
			if min.proc != nil {
				// Another Proc runs first: take its slot for our wake.
				succ := sh.heap.replaceTop(event{at: target, dom: dom.id, seq: seq, proc: p})
				sh.setFast()
				sh.now = succ.at
				sh.nEvents++
				if sh.owner == nil {
					sh.own(p, succ.proc)
				} else {
					sh.handoff = succ.proc
					p.yieldWait()
				}
				return
			}
			e := sh.heap.pop()
			sh.setFast()
			sh.now = e.at
			sh.nEvents++
			e.call()
		}
	}
	sh.push(event{at: target, dom: dom.id, seq: seq, proc: p})
	p.yieldWait()
}

// TryAdvance consumes d of virtual time if nothing on the Proc's shard is
// due at or before now+d and the shard's run horizon covers it, and reports
// whether it did; otherwise it changes nothing and the caller must Advance.
// It is exactly Advance's fast path — the same sequence number, clock and
// event count — in one compare against the shard's cached limit, and small
// enough to inline into callers that charge virtual time on every access.
// A negative d never takes it (Advance treats it as zero).
func (p *Proc) TryAdvance(d Time) bool {
	dom := p.dom
	sh := dom.sh
	target := sh.now + d
	if d < 0 || target > sh.fast {
		return false
	}
	dom.seq++ // our elided wake event's key
	sh.now = target
	sh.nEvents++
	return true
}

// Yield reschedules the Proc at the current time, letting other ready Procs
// run first (FIFO within the same timestamp and domain).
func (p *Proc) Yield() { p.Advance(0) }

// Park blocks the Proc until another Proc (or a timer) unparks it.
// Primitives that use Park must tolerate spurious wakeups by re-checking
// their condition in a loop.
func (p *Proc) Park() { p.yieldWait() }

// Unpark schedules the Proc to resume at the current virtual time.
// It must be called from another Proc's goroutine or a kernel-context fn on
// the same shard, never for a Proc that is currently running.
func (p *Proc) Unpark() { schedProc(p.dom.sh.now, p) }

// UnparkAfter schedules the Proc to resume d from now.
func (p *Proc) UnparkAfter(d Time) { schedProc(p.dom.sh.now+d, p) }

// String implements fmt.Stringer for diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.id, p.name) }
