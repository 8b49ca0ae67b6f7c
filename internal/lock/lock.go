// Package lock implements a hierarchical two-phase lock manager in the
// style of Shore-MT: intent locks at table granularity, shared/exclusive
// locks at row granularity, FIFO grant order, and wait-die deadlock
// avoidance. Wait-die (rather than cycle detection) keeps distributed
// deadlocks impossible too: a participant of a 2PC transaction never waits
// on a younger transaction, so waits-for edges always point from older to
// younger and cannot form cycles across instances.
//
// Single-threaded instances disable the manager entirely (Enabled=false),
// the H-Store-style optimization the paper applies to 24ISL configurations.
package lock

import (
	"errors"
	"slices"
	"sort"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
)

// ErrDie is returned when wait-die chooses to abort the requester; the
// transaction must roll back, release its locks, and retry with its
// original timestamp.
var ErrDie = errors.New("lock: wait-die abort")

// Mode is a lock mode.
type Mode uint8

// Lock modes. Intent modes apply to tables; S and X to rows or tables.
const (
	None Mode = iota
	IS
	IX
	S
	X
)

var modeNames = [...]string{"none", "IS", "IX", "S", "X"}

func (m Mode) String() string { return modeNames[m] }

// compatible reports whether two modes can be held simultaneously by
// different owners.
func compatible(a, b Mode) bool {
	switch a {
	case IS:
		return b != X
	case IX:
		return b == IS || b == IX
	case S:
		return b == IS || b == S
	case X:
		return false
	}
	return true
}

// covers reports whether holding mode a satisfies a request for mode b.
func covers(a, b Mode) bool {
	switch a {
	case X:
		return true
	case S:
		return b == S || b == IS
	case IX:
		return b == IX || b == IS
	case IS:
		return b == IS
	}
	return false
}

// lub returns a mode that covers both a and b. S+IX would canonically be
// SIX; this manager escalates to X, which is safe and only marginally more
// restrictive for the paper's workloads.
func lub(a, b Mode) Mode {
	if covers(a, b) {
		return a
	}
	if covers(b, a) {
		return b
	}
	if (a == S && b == IX) || (a == IX && b == S) {
		return X
	}
	return X
}

// Key names a lockable object: a row of a table (ID >= 0) or a whole table
// (ID == TableLock).
type Key struct {
	Space uint32 // table identifier
	ID    int64  // row key, or TableLock
}

// TableLock is the ID used for table-granularity locks.
const TableLock int64 = -1

// Cost constants.
const (
	// CostAcquireCPU is the compute cost of an uncontended acquire.
	CostAcquireCPU = 130 * sim.Nanosecond
	// CostReleaseCPU is the compute cost per released lock.
	CostReleaseCPU = 60 * sim.Nanosecond
)

const bucketCount = 256

// entry is one owner's grant on a head. held is the mode the owner's held
// set records: None while dispatch's grant waits for its waiter to resume,
// and the old mode while a granted upgrade does.
type entry struct {
	owner uint64
	mode  Mode
	held  Mode
}

type waitReq struct {
	owner   uint64
	mode    Mode
	proc    *sim.Proc
	granted bool
	died    bool // condemned: the manager's instance crashed
}

// head is one locked key: its grants and FIFO waiters, linked into its
// bucket's chain. granted starts out backed by inline, which holds the one
// or two grants a key usually has without a separate allocation.
type head struct {
	key     Key
	next    *head
	granted []entry
	waiters []*waitReq
	inline  [2]entry
}

// headsPerSlab is how many heads newHead cuts from one allocation.
const headsPerSlab = 64

type bucket struct {
	line  mem.Line
	heads *head
}

func (b *bucket) find(key Key) *head {
	for h := b.heads; h != nil; h = h.next {
		if h.key == key {
			return h
		}
	}
	return nil
}

// ownerLocks is one transaction's held set: its heads in acquisition order.
// Releasing in that order keeps runs deterministic, and the mode each is
// held in is the owner's entry on the head.
type ownerLocks struct {
	owner uint64
	heads []*head
}

// Manager is one instance's lock table. It has no Go map: keys hash to
// bucket chains, and the few transactions live at once are found by a scan.
type Manager struct {
	// Enabled gates all locking; a disabled manager is free (single-threaded
	// instances).
	Enabled bool

	buckets [bucketCount]bucket
	// owners holds the live transactions' held sets in no particular order;
	// the slots past its length keep their heads' capacity for reuse.
	owners []ownerLocks
	// heldCap is the largest held-set capacity an owner has reached; a
	// fresh owner slot starts at it instead of growing from empty.
	heldCap   int
	freeHeads []*head       // recycled lock heads, granted/waiters capacity kept
	headSlab  []head        // heads not yet handed out (see newHead)
	freeReqs  []*waitReq    // recycled wait requests (see Acquire)
	lineBufs  [][]*mem.Line // ReleaseAll scratch, one buffer per concurrent call

	// condemned marks a manager whose instance crashed: every waiter has
	// been aborted and every new request dies immediately. The replacement
	// instance gets a fresh manager; this one only drains stragglers.
	condemned bool

	// Stats.
	Acquires uint64
	Waits    uint64
	Dies     uint64
	WaitTime sim.Time
}

// NewManager returns a lock manager; enabled=false makes every operation a
// no-op.
func NewManager(enabled bool) *Manager {
	return &Manager{Enabled: enabled}
}

func (m *Manager) bucketOf(k Key) *bucket {
	h := uint64(k.ID)*0x9e3779b97f4a7c15 ^ uint64(k.Space)*0xc2b2ae3d
	return &m.buckets[h%bucketCount]
}

// heldBy returns owner's held set (valid until the next grant or release).
func (m *Manager) heldBy(owner uint64) *ownerLocks {
	for i := range m.owners {
		if m.owners[i].owner == owner {
			return &m.owners[i]
		}
	}
	return nil
}

// grantOf returns owner's grant on h, provisional or not, or nil.
func grantOf(h *head, owner uint64) *entry {
	for i := range h.granted {
		if h.granted[i].owner == owner {
			return &h.granted[i]
		}
	}
	return nil
}

// heldMode returns the mode owner's held set records for h (None if h is
// nil or not held).
func heldMode(h *head, owner uint64) Mode {
	if h != nil {
		if e := grantOf(h, owner); e != nil {
			return e.held
		}
	}
	return None
}

// Held returns the number of locks owner currently holds.
func (m *Manager) Held(owner uint64) int {
	if o := m.heldBy(owner); o != nil {
		return len(o.heads)
	}
	return 0
}

// HeldMode returns the mode owner holds on key (None if not held).
func (m *Manager) HeldMode(owner uint64, key Key) Mode {
	return heldMode(m.bucketOf(key).find(key), owner)
}

// chargeAcquire pays the fixed cost of one lock-table interaction: a
// coherent write of the bucket's line plus the acquire CPU. A plain
// function (not a closure) keeps the hot path allocation-free.
func chargeAcquire(ctx *exec.Ctx, b *bucket) {
	ctx.WriteLine(&b.line)
	ctx.Charge(CostAcquireCPU)
}

// Acquire obtains key in mode for owner, blocking in FIFO order behind
// conflicting transactions. The owner id doubles as the wait-die timestamp:
// smaller ids are older and win conflicts. Returns ErrDie when the requester
// must abort.
func (m *Manager) Acquire(ctx *exec.Ctx, owner uint64, key Key, mode Mode) error {
	if !m.Enabled {
		return nil
	}
	if m.condemned {
		m.Dies++
		return ErrDie
	}
	prev := ctx.Bucket(exec.BLock)
	defer ctx.Bucket(prev)

	// All grant-table bookkeeping happens before any virtual time is
	// charged: the decision is atomic, exactly as if the bucket were
	// latched. Costs are paid afterwards.
	b := m.bucketOf(key)
	m.Acquires++

	h := b.find(key)
	cur := heldMode(h, owner)
	holds := cur != None
	if holds && covers(cur, mode) {
		chargeAcquire(ctx, b)
		return nil // already held strongly enough
	}
	want := mode
	if holds {
		want = lub(cur, mode) // upgrade
	}

	if h == nil {
		h = m.newHead()
		h.key, h.next = key, b.heads
		b.heads = h
	}

	if m.grantable(h, owner, want) {
		m.grant(h, owner, want)
		chargeAcquire(ctx, b)
		return nil
	}

	// Wait-die: the requester may wait only if it is strictly older than
	// every transaction it would wait behind (holders and queued waiters);
	// otherwise it dies. Edges therefore always point old->young: no
	// deadlock, local or distributed.
	for _, e := range h.granted {
		if e.owner != owner && owner > e.owner {
			m.Dies++
			chargeAcquire(ctx, b)
			return ErrDie
		}
	}
	for _, w := range h.waiters {
		if w.owner != owner && owner > w.owner {
			m.Dies++
			chargeAcquire(ctx, b)
			return ErrDie
		}
	}

	m.Waits++
	var req *waitReq
	if n := len(m.freeReqs) - 1; n >= 0 {
		req = m.freeReqs[n]
		m.freeReqs = m.freeReqs[:n]
	} else {
		req = new(waitReq)
	}
	*req = waitReq{owner: owner, mode: want, proc: ctx.P}
	h.waiters = append(h.waiters, req)
	if holds {
		// Upgrades go to the front: the owner already holds the object and
		// blocks everyone behind it anyway.
		copy(h.waiters[1:], h.waiters)
		h.waiters[0] = req
	}
	chargeAcquire(ctx, b)
	t0 := ctx.P.Now()
	ctx.Block(func() { // does not escape: no allocation
		for !req.granted && !req.died {
			ctx.P.Park()
		}
	})
	m.WaitTime += ctx.P.Now() - t0
	// The request is ours alone again: dispatch took it off the head before
	// granting it, and Condemn emptied the heads and finished with its list
	// before any condemned waiter could resume.
	died := req.died
	m.freeReqs = append(m.freeReqs, req)
	if died {
		m.Dies++
		return ErrDie
	}
	m.grant(h, owner, want)
	return nil
}

// newHead returns an unused head with no grants or waiters: a recycled one,
// or the next of a slab of headsPerSlab.
func (m *Manager) newHead() *head {
	if n := len(m.freeHeads) - 1; n >= 0 {
		h := m.freeHeads[n]
		m.freeHeads = m.freeHeads[:n]
		return h
	}
	if len(m.headSlab) == 0 {
		m.headSlab = make([]head, headsPerSlab)
	}
	h := &m.headSlab[0]
	m.headSlab = m.headSlab[1:]
	h.granted = h.inline[:0]
	return h
}

// Condemn aborts every queued waiter and marks the manager dead: the
// instance that owned it crashed, so held locks will never be released and
// waiting on them would hang forever. Waiters wake with ErrDie in ascending
// owner (timestamp) order. Runs in kernel context (it must not block).
func (m *Manager) Condemn() {
	m.condemned = true
	var doomed []*waitReq
	for i := range m.buckets {
		for h := m.buckets[i].heads; h != nil; h = h.next {
			doomed = append(doomed, h.waiters...)
			h.waiters = nil
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].owner < doomed[j].owner })
	for _, w := range doomed {
		w.died = true
		w.proc.Unpark()
	}
}

// grantable reports whether owner can hold `mode` right now: compatible
// with every other grant and no one queued ahead.
func (m *Manager) grantable(h *head, owner uint64, mode Mode) bool {
	if len(h.waiters) > 0 {
		return false
	}
	for _, e := range h.granted {
		if e.owner != owner && !compatible(e.mode, mode) {
			return false
		}
	}
	return true
}

// addGrant records owner's grant in the head, replacing an existing entry
// on upgrade so an owner never has two entries (a duplicate would survive
// ReleaseAll as a phantom grant and wedge the key).
func addGrant(h *head, owner uint64, mode Mode) *entry {
	if e := grantOf(h, owner); e != nil {
		e.mode = mode
		return e
	}
	h.granted = append(h.granted, entry{owner: owner, mode: mode})
	return &h.granted[len(h.granted)-1]
}

// grant records the grant in the head and, unless it is there already, the
// head in the owner's held set.
func (m *Manager) grant(h *head, owner uint64, mode Mode) {
	e := addGrant(h, owner, mode)
	if e.held == None {
		o := m.heldBy(owner)
		if o == nil {
			m.owners = slices.Grow(m.owners, 1)[:len(m.owners)+1]
			o = &m.owners[len(m.owners)-1]
			o.owner = owner
			if o.heads == nil {
				o.heads = make([]*head, 0, m.heldCap)
			}
		}
		o.heads = append(o.heads, h)
	}
	e.held = mode
}

// ReleaseAll drops every lock owner holds (strict 2PL release at
// commit/abort) and wakes newly grantable waiters.
func (m *Manager) ReleaseAll(ctx *exec.Ctx, owner uint64) {
	if !m.Enabled {
		return
	}
	hm := m.heldBy(owner)
	if hm == nil {
		return
	}
	prev := ctx.Bucket(exec.BLock)
	defer ctx.Bucket(prev)
	// Bookkeeping first (atomic), in acquisition order, then pay the
	// per-lock release costs. The scratch is taken off the manager for the
	// duration of the call: the charge loop consumes virtual time, so a
	// concurrently releasing transaction can re-enter ReleaseAll and must
	// not reuse this call's backing array.
	var lines []*mem.Line
	if n := len(m.lineBufs) - 1; n >= 0 {
		lines = m.lineBufs[n][:0]
		m.lineBufs = m.lineBufs[:n]
	}
	for _, h := range hm.heads {
		b := m.bucketOf(h.key)
		lines = append(lines, &b.line)
		for i := range h.granted {
			if h.granted[i].owner == owner {
				h.granted = append(h.granted[:i], h.granted[i+1:]...)
				break
			}
		}
		m.dispatch(h)
		if len(h.granted) == 0 && len(h.waiters) == 0 {
			// Nobody holds or awaits the key, so nothing references the
			// head: a waiter keeps its head alive until it is granted, and
			// a grant until it is released.
			pp := &b.heads
			for *pp != h {
				pp = &(*pp).next
			}
			*pp = h.next
			m.freeHeads = append(m.freeHeads, h)
		}
	}
	// Swap the held set to the end and shrink past it: the slot keeps its
	// heads' capacity for the next owner.
	m.heldCap = max(m.heldCap, cap(hm.heads))
	last := len(m.owners) - 1
	*hm, m.owners[last] = m.owners[last], *hm
	m.owners[last].heads = m.owners[last].heads[:0]
	m.owners = m.owners[:last]
	for _, line := range lines {
		ctx.WriteLine(line)
		ctx.Charge(CostReleaseCPU)
	}
	m.lineBufs = append(m.lineBufs, lines)
}

// dispatch grants the maximal FIFO prefix of compatible waiters.
func (m *Manager) dispatch(h *head) {
	for len(h.waiters) > 0 {
		w := h.waiters[0]
		ok := true
		for _, e := range h.granted {
			if e.owner != w.owner && !compatible(e.mode, w.mode) {
				ok = false
				break
			}
		}
		if !ok {
			return
		}
		// Shift down rather than reslice, so the head keeps its capacity
		// through recycling.
		n := copy(h.waiters, h.waiters[1:])
		h.waiters[n] = nil
		h.waiters = h.waiters[:n]
		// Provisional grant so the next waiter's compatibility check sees
		// it; replaces the owner's old entry when this is an upgrade.
		addGrant(h, w.owner, w.mode)
		w.granted = true
		w.proc.Unpark()
	}
}
