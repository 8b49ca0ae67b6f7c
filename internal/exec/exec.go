// Package exec defines the execution context that threads of the simulated
// database engine carry through every component. A Ctx binds a simulated
// thread (sim.Proc) to a hardware core, charges virtual time for compute and
// memory accesses through the machine-wide mem.Model, shares the core with
// other threads via a FIFO run queue, and buckets every nanosecond into the
// time-breakdown categories reported in Figure 11 of the paper.
package exec

import (
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// Bucket classifies where a transaction's time goes. The categories mirror
// Figure 11: xct execution, xct management, locking, logging, communication —
// plus latching, I/O and scheduler queueing, which the paper folds into
// neighbours but are worth separating in a reimplementation.
type Bucket int

// Breakdown buckets.
const (
	BExec    Bucket = iota // transaction body: data access and compute
	BXct                   // begin/commit bookkeeping ("xct management")
	BLock                  // lock manager work and lock waits
	BLatch                 // page latching
	BLog                   // log insertion and commit flush waits
	BComm                  // message send/receive and votes
	BIO                    // buffer pool disk reads/writes
	BSched                 // waiting in the core's run queue
	BTimeout               // coordinator timeout aborts: expired waits, cleanup, backoff
	BIdle                  // threads parked with nothing to do (not a txn cost)
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	BExec:    "execution",
	BXct:     "xct-mgmt",
	BLock:    "locking",
	BLatch:   "latching",
	BLog:     "logging",
	BComm:    "communication",
	BIO:      "io",
	BSched:   "scheduling",
	BTimeout: "timeout-abort",
	BIdle:    "idle",
}

// String returns the bucket's report label.
func (b Bucket) String() string {
	if b < 0 || b >= NumBuckets {
		return "unknown"
	}
	return bucketNames[b]
}

// Breakdown accumulates virtual time per bucket.
type Breakdown [NumBuckets]sim.Time

// Add accumulates o into b.
func (b *Breakdown) Add(o *Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// Total returns the sum over all buckets.
func (b *Breakdown) Total() sim.Time {
	var t sim.Time
	for _, v := range b {
		t += v
	}
	return t
}

// Ctx is the per-thread execution context. It is not safe for concurrent
// use, which is fine: simulated threads run one at a time.
type Ctx struct {
	P    *sim.Proc
	Core topology.CoreID
	Mem  *mem.Model

	// CPU is the core's run queue; nil means the thread has the core to
	// itself. A thread holds the CPU while computing and releases it across
	// blocking waits, like a kernel thread that blocks in the scheduler.
	CPU *sim.Mutex

	// BD receives the time breakdown; nil disables bucketing.
	BD *Breakdown

	// Dilation (>= 1) stretches compute charges to model the
	// instruction-fetch and pipeline stalls of instances whose threads span
	// many cores and sockets — the effect behind the IPC and stalled-cycle
	// gaps of Figure 8. Zero means 1 (no dilation).
	Dilation float64

	bucket    Bucket
	scheduled bool
}

// New returns a context for proc p running on core c of model m, sharing cpu
// (which may be nil for a dedicated core).
func New(p *sim.Proc, c topology.CoreID, m *mem.Model, cpu *sim.Mutex) *Ctx {
	return &Ctx{P: p, Core: c, Mem: m, CPU: cpu}
}

// Bucket switches the active breakdown bucket and returns the previous one,
// so callers can restore it with defer.
func (c *Ctx) Bucket(b Bucket) Bucket {
	prev := c.bucket
	c.bucket = b
	return prev
}

func (c *Ctx) bill(d sim.Time) {
	if c.BD != nil {
		c.BD[c.bucket] += d
	}
}

// Schedule acquires the core's run queue. Time spent waiting for the core is
// billed to BSched. A thread must be scheduled before charging work.
func (c *Ctx) Schedule() {
	if c.CPU == nil || c.scheduled {
		c.scheduled = true
		return
	}
	t0 := c.P.Now()
	c.CPU.Lock(c.P)
	c.scheduled = true
	if w := c.P.Now() - t0; w > 0 && c.BD != nil {
		c.BD[BSched] += w
	}
}

// Deschedule releases the core so other threads bound to it can run.
func (c *Ctx) Deschedule() {
	if c.CPU == nil || !c.scheduled {
		c.scheduled = false
		return
	}
	c.scheduled = false
	c.CPU.Unlock(c.P)
}

// Scheduled reports whether the thread currently holds its core.
func (c *Ctx) Scheduled() bool { return c.CPU == nil || c.scheduled }

// Charge consumes d of virtual CPU time (compute, no memory-line stall).
// The wall time is d times the context's dilation factor.
func (c *Ctx) Charge(d sim.Time) {
	if d <= 0 {
		return
	}
	actual := d
	if c.Dilation > 1 {
		actual = sim.Time(float64(d) * c.Dilation)
	}
	c.Mem.ComputeDilated(c.Core, d, actual)
	c.P.Advance(actual)
	c.bill(actual)
}

// ReadLine charges a coherent read of tracked line l.
func (c *Ctx) ReadLine(l *mem.Line) {
	d := c.Mem.Read(c.Core, l)
	c.P.Advance(d)
	c.bill(d)
}

// WriteLine charges a coherent write of tracked line l.
func (c *Ctx) WriteLine(l *mem.Line) {
	d := c.Mem.Write(c.Core, l)
	c.P.Advance(d)
	c.bill(d)
}

// ReadData charges a bulk read of n bytes from working set ws.
func (c *Ctx) ReadData(ws *mem.WorkingSet, n int) {
	d := c.Mem.DataRead(c.Core, ws, n)
	c.P.Advance(d)
	c.bill(d)
}

// WriteData charges a bulk write of n bytes to working set ws.
func (c *Ctx) WriteData(ws *mem.WorkingSet, n int) {
	d := c.Mem.DataWrite(c.Core, ws, n)
	c.P.Advance(d)
	c.bill(d)
}

// Stall consumes d of virtual time that is neither compute nor a blocking
// wait (e.g. wire latency observed synchronously). Billed to the current
// bucket but not to the core's busy time.
func (c *Ctx) Stall(d sim.Time) {
	if d <= 0 {
		return
	}
	c.P.Advance(d)
	c.bill(d)
}

// Block runs wait() — a function that parks the proc until some condition —
// with the core released, billing the elapsed time to the current bucket.
// Use it for every potentially long wait: locks, queues, votes, I/O.
func (c *Ctx) Block(wait func()) {
	was := c.scheduled || c.CPU == nil
	if was {
		c.Deschedule()
	}
	t0 := c.P.Now()
	wait()
	c.bill(c.P.Now() - t0)
	if was {
		c.Schedule()
	}
}

// LockSim acquires a sim.Mutex, releasing the core while blocked.
func (c *Ctx) LockSim(m *sim.Mutex) {
	if m.TryLock(c.P) {
		return
	}
	c.Block(func() { m.Lock(c.P) })
}

// UnlockSim releases a sim.Mutex.
func (c *Ctx) UnlockSim(m *sim.Mutex) { m.Unlock(c.P) }

// UseResource models an I/O with the given service time on r, core released.
func (c *Ctx) UseResource(r *sim.Resource, service sim.Time) {
	c.Block(func() { r.Use(c.P, service) })
}
