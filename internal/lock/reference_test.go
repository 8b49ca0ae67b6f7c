package lock

import (
	"sort"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
)

// refManager is the lock table as it was before the bucket chains: per-bucket
// Go maps of heads and a map of held sets keyed by owner. It is kept, verbatim
// but for the names, as the reference TestManagerMatchesReference drives side
// by side with Manager.
type refManager struct {
	Enabled bool

	buckets   [bucketCount]refBucket
	held      map[uint64]*refOwnerLocks
	free      []*refOwnerLocks
	freeHeads []*refHead
	freeReqs  []*refWaitReq
	lineBufs  [][]*mem.Line

	condemned bool

	Acquires uint64
	Waits    uint64
	Dies     uint64
	WaitTime sim.Time
}

type refEntry struct {
	owner uint64
	mode  Mode
}

type refWaitReq struct {
	owner   uint64
	mode    Mode
	proc    *sim.Proc
	granted bool
	died    bool
}

type refHead struct {
	granted []refEntry
	waiters []*refWaitReq
}

type refBucket struct {
	line  mem.Line
	heads map[Key]*refHead
}

type refHeldLock struct {
	key  Key
	mode Mode
}

type refOwnerLocks struct {
	locks []refHeldLock
}

func (o *refOwnerLocks) find(key Key) (Mode, bool) {
	for i := range o.locks {
		if o.locks[i].key == key {
			return o.locks[i].mode, true
		}
	}
	return None, false
}

func (o *refOwnerLocks) set(key Key, mode Mode) {
	for i := range o.locks {
		if o.locks[i].key == key {
			o.locks[i].mode = mode
			return
		}
	}
	o.locks = append(o.locks, refHeldLock{key: key, mode: mode})
}

func newRefManager(enabled bool) *refManager {
	m := &refManager{Enabled: enabled, held: make(map[uint64]*refOwnerLocks)}
	for i := range m.buckets {
		m.buckets[i].heads = make(map[Key]*refHead)
	}
	return m
}

func (m *refManager) bucketOf(k Key) *refBucket {
	h := uint64(k.ID)*0x9e3779b97f4a7c15 ^ uint64(k.Space)*0xc2b2ae3d
	return &m.buckets[h%bucketCount]
}

func (m *refManager) Held(owner uint64) int {
	if o := m.held[owner]; o != nil {
		return len(o.locks)
	}
	return 0
}

func (m *refManager) HeldMode(owner uint64, key Key) Mode {
	if o := m.held[owner]; o != nil {
		mode, _ := o.find(key)
		return mode
	}
	return None
}

func refChargeAcquire(ctx *exec.Ctx, b *refBucket) {
	ctx.WriteLine(&b.line)
	ctx.Charge(CostAcquireCPU)
}

func (m *refManager) Acquire(ctx *exec.Ctx, owner uint64, key Key, mode Mode) error {
	if !m.Enabled {
		return nil
	}
	if m.condemned {
		m.Dies++
		return ErrDie
	}
	prev := ctx.Bucket(exec.BLock)
	defer ctx.Bucket(prev)

	b := m.bucketOf(key)
	m.Acquires++

	hm := m.held[owner]
	var cur Mode
	var holds bool
	if hm != nil {
		cur, holds = hm.find(key)
	}
	if holds && covers(cur, mode) {
		refChargeAcquire(ctx, b)
		return nil
	}
	want := mode
	if holds {
		want = lub(cur, mode)
	}

	h := b.heads[key]
	if h == nil {
		if n := len(m.freeHeads) - 1; n >= 0 {
			h = m.freeHeads[n]
			m.freeHeads = m.freeHeads[:n]
		} else {
			h = &refHead{}
		}
		b.heads[key] = h
	}

	if m.grantable(h, owner, want) {
		m.grant(h, owner, key, want)
		refChargeAcquire(ctx, b)
		return nil
	}

	for _, e := range h.granted {
		if e.owner != owner && owner > e.owner {
			m.Dies++
			refChargeAcquire(ctx, b)
			return ErrDie
		}
	}
	for _, w := range h.waiters {
		if w.owner != owner && owner > w.owner {
			m.Dies++
			refChargeAcquire(ctx, b)
			return ErrDie
		}
	}

	m.Waits++
	var req *refWaitReq
	if n := len(m.freeReqs) - 1; n >= 0 {
		req = m.freeReqs[n]
		m.freeReqs = m.freeReqs[:n]
	} else {
		req = new(refWaitReq)
	}
	*req = refWaitReq{owner: owner, mode: want, proc: ctx.P}
	h.waiters = append(h.waiters, req)
	if holds {
		copy(h.waiters[1:], h.waiters)
		h.waiters[0] = req
	}
	refChargeAcquire(ctx, b)
	t0 := ctx.P.Now()
	ctx.Block(func() {
		for !req.granted && !req.died {
			ctx.P.Park()
		}
	})
	m.WaitTime += ctx.P.Now() - t0
	died := req.died
	m.freeReqs = append(m.freeReqs, req)
	if died {
		m.Dies++
		return ErrDie
	}
	m.grant(h, owner, key, want)
	return nil
}

func (m *refManager) Condemn() {
	m.condemned = true
	var doomed []*refWaitReq
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

func (m *refManager) grantable(h *refHead, owner uint64, mode Mode) bool {
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

func refAddGrant(h *refHead, owner uint64, mode Mode) {
	for i := range h.granted {
		if h.granted[i].owner == owner {
			h.granted[i].mode = mode
			return
		}
	}
	h.granted = append(h.granted, refEntry{owner: owner, mode: mode})
}

func (m *refManager) grant(h *refHead, owner uint64, key Key, mode Mode) {
	hm := m.held[owner]
	if hm == nil {
		if n := len(m.free) - 1; n >= 0 {
			hm = m.free[n]
			m.free = m.free[:n]
		} else {
			hm = &refOwnerLocks{}
		}
		m.held[owner] = hm
	}
	refAddGrant(h, owner, mode)
	hm.set(key, mode)
}

func (m *refManager) ReleaseAll(ctx *exec.Ctx, owner uint64) {
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

func (m *refManager) dispatch(h *refHead) {
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
		n := copy(h.waiters, h.waiters[1:])
		h.waiters[n] = nil
		h.waiters = h.waiters[:n]
		refAddGrant(h, w.owner, w.mode)
		w.granted = true
		w.proc.Unpark()
	}
}
