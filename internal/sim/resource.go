package sim

// Resource is a multi-server FIFO resource (disks, NICs, memory channels):
// up to Capacity Procs may hold it simultaneously; further requesters queue
// in arrival order.
type Resource struct {
	capacity int
	inUse    int
	waiters  waitList

	// Acquires counts successful acquisitions, Contended those that queued,
	// BusyTime integrates holders-over-time for utilization reporting.
	Acquires   uint64
	Contended  uint64
	WaitTime   Time
	BusyTime   Time
	lastChange Time
}

// NewResource returns a resource with the given number of servers.
func NewResource(capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{capacity: capacity}
}

func (r *Resource) accountTo(now Time) {
	r.BusyTime += Time(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Acquire obtains one server, blocking p if all are busy. A woken waiter
// re-registers before re-parking (another Proc may have barged through the
// fast path), so wakeups are never lost.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse >= r.capacity {
		r.Contended++
		start := p.Now()
		for r.inUse >= r.capacity {
			r.waiters.push(p)
			p.Park()
		}
		r.WaitTime += p.Now() - start
	}
	r.accountTo(p.Now())
	r.inUse++
	r.Acquires++
}

// Release returns one server and wakes the longest waiter, if any.
func (r *Resource) Release(p *Proc) {
	if r.inUse <= 0 {
		panic("sim: Resource.Release without Acquire")
	}
	r.accountTo(p.Now())
	r.inUse--
	if w, ok := r.waiters.pop(); ok {
		w.Unpark()
	}
}

// Use acquires a server, advances p by service, and releases: the common
// pattern for modeling an I/O with a fixed service time.
func (r *Resource) Use(p *Proc, service Time) {
	r.Acquire(p)
	p.Advance(service)
	r.Release(p)
}

// Utilization returns mean busy servers / capacity over [0, now].
func (r *Resource) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	busy := r.BusyTime + Time(r.inUse)*(now-r.lastChange)
	return float64(busy) / (float64(now) * float64(r.capacity))
}
