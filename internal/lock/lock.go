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

type entry struct {
	owner uint64
	mode  Mode
}

type waitReq struct {
	owner   uint64
	mode    Mode
	proc    *sim.Proc
	granted bool
	died    bool // condemned: the manager's instance crashed
}

type head struct {
	granted []entry
	waiters []*waitReq
}

type bucket struct {
	line  mem.Line
	heads map[Key]*head
}

type heldLock struct {
	key  Key
	mode Mode
}

// ownerLocks is one transaction's held set, kept in acquisition order.
// Releasing in insertion order keeps runs deterministic (Go map iteration is
// not), and a transaction holds at most a few dozen locks, so a linear scan
// beats hashing.
type ownerLocks struct {
	locks []heldLock
}

func (o *ownerLocks) find(key Key) (Mode, bool) {
	for i := range o.locks {
		if o.locks[i].key == key {
			return o.locks[i].mode, true
		}
	}
	return None, false
}

func (o *ownerLocks) set(key Key, mode Mode) {
	for i := range o.locks {
		if o.locks[i].key == key {
			o.locks[i].mode = mode
			return
		}
	}
	o.locks = append(o.locks, heldLock{key: key, mode: mode})
}

// Manager is one instance's lock table.
type Manager struct {
	// Enabled gates all locking; a disabled manager is free (single-threaded
	// instances).
	Enabled bool

	buckets   [bucketCount]bucket
	held      map[uint64]*ownerLocks
	free      []*ownerLocks // recycled held sets (allocation-free steady state)
	freeHeads []*head       // recycled lock heads, granted/waiters capacity kept
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
	m := &Manager{Enabled: enabled, held: make(map[uint64]*ownerLocks)}
	for i := range m.buckets {
		m.buckets[i].heads = make(map[Key]*head)
	}
	return m
}

func (m *Manager) bucketOf(k Key) *bucket {
	h := uint64(k.ID)*0x9e3779b97f4a7c15 ^ uint64(k.Space)*0xc2b2ae3d
	return &m.buckets[h%bucketCount]
}

// Held returns the number of locks owner currently holds.
func (m *Manager) Held(owner uint64) int {
	if o := m.held[owner]; o != nil {
		return len(o.locks)
	}
	return 0
}

// HeldMode returns the mode owner holds on key (None if not held).
func (m *Manager) HeldMode(owner uint64, key Key) Mode {
	if o := m.held[owner]; o != nil {
		mode, _ := o.find(key)
		return mode
	}
	return None
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

	hm := m.held[owner]
	var cur Mode
	var holds bool
	if hm != nil {
		cur, holds = hm.find(key)
	}
	if holds && covers(cur, mode) {
		chargeAcquire(ctx, b)
		return nil // already held strongly enough
	}
	want := mode
	if holds {
		want = lub(cur, mode) // upgrade
	}

	h := b.heads[key]
	if h == nil {
		if n := len(m.freeHeads) - 1; n >= 0 {
			h = m.freeHeads[n]
			m.freeHeads = m.freeHeads[:n]
		} else {
			h = &head{}
		}
		b.heads[key] = h
	}

	if m.grantable(h, owner, want) {
		m.grant(h, owner, key, want)
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
	m.grant(h, owner, key, want)
	return nil
}

// Condemn aborts every queued waiter and marks the manager dead: the
// instance that owned it crashed, so held locks will never be released and
// waiting on them would hang forever. Waiters wake with ErrDie in ascending
// owner (timestamp) order — deterministic despite the bucket maps. Runs in
// kernel context (it must not block).
func (m *Manager) Condemn() {
	m.condemned = true
	var doomed []*waitReq
	for i := range m.buckets {
		for _, h := range m.buckets[i].heads {
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
func addGrant(h *head, owner uint64, mode Mode) {
	for i := range h.granted {
		if h.granted[i].owner == owner {
			h.granted[i].mode = mode
			return
		}
	}
	h.granted = append(h.granted, entry{owner: owner, mode: mode})
}

// grant records the grant in the head and the owner's held set.
func (m *Manager) grant(h *head, owner uint64, key Key, mode Mode) {
	hm := m.held[owner]
	if hm == nil {
		if n := len(m.free) - 1; n >= 0 {
			hm = m.free[n]
			m.free = m.free[:n]
		} else {
			hm = &ownerLocks{}
		}
		m.held[owner] = hm
	}
	addGrant(h, owner, mode)
	hm.set(key, mode)
}

// ReleaseAll drops every lock owner holds (strict 2PL release at
// commit/abort) and wakes newly grantable waiters.
func (m *Manager) ReleaseAll(ctx *exec.Ctx, owner uint64) {
	if !m.Enabled {
		return
	}
	hm := m.held[owner]
	if hm == nil || len(hm.locks) == 0 {
		delete(m.held, owner)
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
	for _, hl := range hm.locks {
		b := m.bucketOf(hl.key)
		lines = append(lines, &b.line)
		h := b.heads[hl.key]
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
			delete(b.heads, hl.key)
			m.freeHeads = append(m.freeHeads, h)
		}
	}
	delete(m.held, owner)
	hm.locks = hm.locks[:0]
	m.free = append(m.free, hm)
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
