package sim

// Mutex is a virtual-time mutual-exclusion lock with strict FIFO handoff:
// Unlock transfers ownership directly to the longest-waiting Proc. FIFO
// handoff mirrors the queue-based spinlocks (MCS) used by storage managers
// like Shore-MT and keeps simulations deterministic.
//
// Mutex models *time spent waiting*; it provides no real mutual exclusion
// (none is needed — Procs already run one at a time).
type Mutex struct {
	owner   *Proc
	waiters waitList

	// Acquires counts Lock calls; Contended counts Lock calls that had to
	// wait. WaitTime accumulates total virtual time spent blocked.
	Acquires  uint64
	Contended uint64
	WaitTime  Time
}

// Lock acquires the mutex, blocking in virtual time while another Proc
// holds it.
func (m *Mutex) Lock(p *Proc) {
	m.Acquires++
	if m.owner == nil {
		m.owner = p
		return
	}
	m.Contended++
	start := p.Now()
	m.waiters.push(p)
	for m.owner != p {
		p.Park()
	}
	m.WaitTime += p.Now() - start
}

// TryLock acquires the mutex if it is free and reports whether it did.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.owner != nil {
		return false
	}
	m.Acquires++
	m.owner = p
	return true
}

// Unlock releases the mutex, handing it to the longest waiter if any.
// Unlocking a mutex not owned by p panics: it indicates an engine bug.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner " + p.String())
	}
	w, ok := m.waiters.pop()
	if !ok {
		m.owner = nil
		return
	}
	m.owner = w
	w.Unpark()
}

// Held reports whether any Proc currently owns the mutex.
func (m *Mutex) Held() bool { return m.owner != nil }

// HeldBy reports whether p currently owns the mutex.
func (m *Mutex) HeldBy(p *Proc) bool { return m.owner == p }
