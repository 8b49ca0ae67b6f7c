package sim

import (
	"fmt"
	"math"
	"sync"
)

// event is a single entry in a shard's timeline. Exactly one payload form
// is set:
//
//   - proc: wake the Proc (hand control to its coroutine);
//   - fn: run a kernel-context callback;
//   - fnArg: run an argument-carrying kernel-context callback; the (fnArg,
//     arg) pair lets long-lived components (e.g. Queue's deferred deliveries)
//     schedule with one pre-bound closure instead of allocating a fresh
//     closure per event.
//
// Kernel-context callbacks must not block; they may push to queues, unpark
// procs, or schedule more events. Storing the event as a tagged struct — by
// value, in a flat heap — means the common "wake proc" event needs no
// closure and no interface boxing.
type event struct {
	at    Time
	seq   uint64
	proc  *Proc
	fn    func()
	fnArg func(uint32)
	arg   uint32
	dom   int32
}

// before orders events by (at, dom, seq): timestamp first, then the
// scheduling domain's id, then that domain's private sequence counter.
// The key is intrinsic to the *scheduling* domain — assigned when the event
// is created, never reassigned when it crosses a shard boundary — which is
// what makes the execution order independent of how domains are mapped onto
// shards: the same events carry the same keys whether they were inserted
// directly into a shared heap or merged from another shard's outbox. With a
// single domain the key degenerates to the classic (at, insertion-order)
// FIFO tie-break.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.dom != o.dom {
		return e.dom < o.dom
	}
	return e.seq < o.seq
}

// timerHeap is a 4-ary min-heap of events. The 4-ary layout halves the depth
// of a binary heap and keeps a node's children within two cache lines;
// push/pop are allocation-free once the backing array has grown to the
// simulation's working set.
type timerHeap struct {
	ev []event
}

func (h *timerHeap) len() int    { return len(h.ev) }
func (h *timerHeap) empty() bool { return len(h.ev) == 0 }

func (h *timerHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h.ev[i].before(&h.ev[p]) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *timerHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // release fn/proc references to the GC
	h.ev = h.ev[:n]
	if n > 1 {
		h.siftDown()
	}
	return top
}

// replaceTop is pop then push(e) in one siftDown. The heap must not be empty.
func (h *timerHeap) replaceTop(e event) event {
	top := h.ev[0]
	h.ev[0] = e
	h.siftDown()
	return top
}

func (h *timerHeap) siftDown() {
	n := len(h.ev)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := i
		for c := first; c < last; c++ {
			if h.ev[c].before(&h.ev[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
}

// Horizon sentinels: noHorizon forbids any inline clock advance (single-step
// mode); maxHorizon allows procs to advance freely (Run).
const (
	noHorizon  Time = math.MinInt64
	maxHorizon Time = math.MaxInt64
)

// shard is one event partition: an independently-advancing slice of the
// timeline with its own clock, event heap, and inbound mailbox for events
// scheduled by domains living on other partitions. A single-shard kernel is
// exactly the classic sequential kernel; a multi-shard kernel advances its
// partitions window by window between conservative synchronization points
// (see parallel.go). Partitions are independent of host goroutines: by
// default the caller's goroutine runs every partition's window in turn.
type shard struct {
	k  *Kernel
	id int

	now Time

	// horizon bounds the kernel-context fast path: a Proc may consume
	// virtual time inline (without parking in the heap and handing control
	// to the event loop) only up to this timestamp. Every window pins it to
	// the partition's window limit (on a single-shard kernel that is the
	// Run/RunUntil bound itself); single Step calls pin it to noHorizon so
	// exactly one event runs.
	horizon Time

	heap    timerHeap
	nEvents uint64

	// owner runs the event loop from its coroutine (see own), nil while the
	// kernel does; handoff is a nested Proc's successor, passed back to the
	// owner; nested counts the owner's resumes (a test probe).
	owner   *Proc
	handoff *Proc
	nested  uint64

	// inbox receives events scheduled cross-shard, already carrying their
	// final (at, dom, seq) keys; the coordinator folds them into the heap
	// between windows, which is safe because conservative lookahead
	// guarantees they are due no earlier than the next window. inMu also
	// guards the cross-partition slot tables of the shard's queues.
	inMu  sync.Mutex
	inbox []event

	// panicked holds a panic captured while a worker goroutine ran this
	// shard's window, until the coordinator re-raises it.
	panicked any
}

func (sh *shard) clamp(at Time) Time {
	if at < sh.now {
		return sh.now
	}
	return at
}

// step executes the next event under the current horizon.
func (sh *shard) step() bool {
	if sh.heap.empty() {
		return false
	}
	e := sh.heap.pop()
	sh.now = e.at
	sh.nEvents++
	sh.dispatch(&e)
	return true
}

// dispatch executes one popped event. Proc panics and kernel-context
// callback panics both unwind through here into Step/Run (with several
// workers they are captured and re-raised when the window's workers join).
func (sh *shard) dispatch(e *event) {
	if e.proc != nil {
		e.proc.resume()
	} else {
		e.call()
	}
}

// call runs a kernel-context callback event.
func (e *event) call() {
	if e.fn != nil {
		e.fn()
	} else {
		e.fnArg(e.arg)
	}
}

// own makes p, parked in Advance behind next (popped and counted), the
// shard's event loop until p's own wake, at or below the horizon, comes up.
// Nested procs hand successors back through handoff, so nesting is at most
// two deep; the deferred reset leaves no owner behind a panic.
func (sh *shard) own(p, next *Proc) {
	sh.owner = p
	defer func() { sh.owner, sh.handoff = nil, nil }()
	for next != p {
		if next != nil {
			sh.nested++
			next.resume()
			next, sh.handoff = sh.handoff, nil
			continue
		}
		e := sh.heap.pop()
		sh.now = e.at
		sh.nEvents++
		if next = e.proc; next == nil {
			e.call()
		}
	}
}

// Kernel owns the virtual clocks, the event shards, and all Procs. It is
// not safe for concurrent use: the simulation itself provides all the
// concurrency that is being modeled, and public methods must be called from
// one driver goroutine. Only a kernel given more than one worker
// (SetWorkers) runs shards concurrently, internally, inside Run/RunUntil.
type Kernel struct {
	shards  []*shard
	domains []*Domain

	// laPair is the dense shards x shards matrix of direct delivery floors:
	// laPair[i*n+j] is the minimum delay of any PushAfterFrom whose
	// scheduling domain lives on shard i and whose queue lives on shard j
	// (noChannel where shard i never sends to shard j). laDist is its
	// min-plus closure *including cycles* — laDist[i*n+j] lower-bounds the
	// virtual time any causal chain starting on shard i needs to reach
	// shard j through any sequence of cross-shard hops, and laDist[i*n+i]
	// is the shortest round trip i -> ... -> i, which is what bounds how
	// far shard i may run ahead of its own future incoming echoes. The
	// per-shard window limits in parallel.go are derived from laDist.
	laPair []Time
	laDist []Time

	// mins is per-window scratch (every shard's next-event time) and
	// runnable the shards released into the current window, in index order;
	// windows counts synchronization windows executed and wakeups counts
	// per-shard window entries (the sum of released shards over all
	// windows) — the synchronization work that distance-aware lookahead
	// exists to reduce.
	mins     []Time
	runnable []*shard
	windows  uint64
	wakeups  uint64

	procMu sync.Mutex
	procs  []*Proc

	// Worker plumbing (parallel.go). workers is how many goroutines execute
	// a window's runnable shards, the caller's included; start[w-1] feeds
	// helper goroutine w one token per window it has work in, and is empty
	// until the first multi-worker window.
	workers int
	start   []chan struct{}
	joined  sync.WaitGroup // helpers still inside the current window
	exited  sync.WaitGroup // helpers that have not returned yet
}

// noChannel marks a shard pair with no declared delivery channel: no
// cross-shard send may travel it, and no lookahead bound is derived from it.
const noChannel = Time(math.MaxInt64)

// addClamp returns a+b saturating at maxHorizon (operands are non-negative
// event times and lookaheads).
func addClamp(a, b Time) Time {
	if a > maxHorizon-b {
		return maxHorizon
	}
	return a + b
}

// NewKernel returns an empty single-shard kernel at virtual time zero.
func NewKernel() *Kernel { return NewSharded(1, 0) }

// NewSharded returns a kernel with the given number of event shards
// (partitions) and a uniform conservative lookahead. Lookahead must be
// positive when shards > 1: it is the floor under every cross-shard delivery
// delay (PushAfterFrom panics on anything shorter), and the window width
// that lets shards advance without waiting on each other. Domains created
// with NewDomain choose their shard; determinism is independent of that
// mapping and of the worker count (SetWorkers), so NewSharded(1, la) and
// NewSharded(n, la) produce bit-identical simulations. Deployments that know
// their topology's distance structure should prefer NewShardedMatrix:
// per-pair floors widen windows for shards whose nearest neighbors are far
// apart.
func NewSharded(shards int, lookahead Time) *Kernel {
	if shards < 1 {
		panic("sim: kernel needs >= 1 shard")
	}
	if shards > 1 && lookahead <= 0 {
		panic("sim: a multi-shard kernel needs a positive conservative lookahead")
	}
	la := make([][]Time, shards)
	for i := range la {
		la[i] = make([]Time, shards)
		for j := range la[i] {
			if i != j {
				la[i][j] = lookahead
			}
		}
	}
	return NewShardedMatrix(la)
}

// NewShardedMatrix returns a kernel with len(la) event shards and the given
// per-shard-pair conservative lookahead matrix: la[i][j] is the minimum
// virtual delay of any cross-shard delivery scheduled by a domain on shard i
// into a queue on shard j (the Chandy–Misra lookahead of the i->j channel).
// An off-diagonal entry <= 0 declares that shard i never sends to shard j —
// PushAfterFrom panics on such a send. The diagonal is ignored (same-shard
// deliveries bypass the cross-shard path entirely).
//
// Windowed execution derives each shard's limit from the min-plus closure of
// the matrix, so a shard whose in-distances are large runs far ahead of the
// rest between barriers; determinism is unaffected, because event keys —
// (at, scheduling domain, domain-local seq) — never depend on shard windows.
func NewShardedMatrix(la [][]Time) *Kernel {
	n := len(la)
	if n < 1 {
		panic("sim: kernel needs >= 1 shard")
	}
	k := &Kernel{}
	k.shards = make([]*shard, n)
	for i := range k.shards {
		k.shards[i] = &shard{k: k, id: i, horizon: noHorizon}
	}
	k.domains = []*Domain{{sh: k.shards[0], id: 0}}
	k.laPair = make([]Time, n*n)
	for i, row := range la {
		if len(row) != n {
			panic(fmt.Sprintf("sim: lookahead matrix row %d has %d entries, want %d", i, len(row), n))
		}
		for j, v := range row {
			switch {
			case i == j:
				k.laPair[i*n+j] = noChannel
			case v <= 0:
				k.laPair[i*n+j] = noChannel
			default:
				k.laPair[i*n+j] = v
			}
		}
	}
	// Min-plus closure with a noChannel diagonal: laDist[i][j] is the
	// cheapest multi-hop route i -> ... -> j, and laDist[i][i] the cheapest
	// cycle through i. All declared floors are positive, so every entry is
	// either >= 1 or noChannel.
	k.laDist = make([]Time, n*n)
	copy(k.laDist, k.laPair)
	for via := 0; via < n; via++ {
		for i := 0; i < n; i++ {
			d1 := k.laDist[i*n+via]
			if d1 == noChannel {
				continue
			}
			for j := 0; j < n; j++ {
				d2 := k.laDist[via*n+j]
				if d2 == noChannel {
					continue
				}
				if d := addClamp(d1, d2); d < k.laDist[i*n+j] {
					k.laDist[i*n+j] = d
				}
			}
		}
	}
	k.mins = make([]Time, n)
	k.runnable = make([]*shard, 0, n)
	k.workers = 1
	return k
}

// SetWorkers sets how many host goroutines execute the runnable shards of
// each window: 1 (the default) runs them in index order on the goroutine
// that called Run/RunUntil and starts no goroutine at all; n > 1 deals them
// to n workers in contiguous blocks, clamped to the shard count and to 64 —
// the caller plus n-1 helper goroutines that live until Close. The
// simulation is bit-identical at every worker count: shards inside their
// windows are causally independent, and event keys never depend on which
// goroutine ran them. Only wall-clock time changes. Call while the kernel is
// idle.
func (k *Kernel) SetWorkers(n int) {
	k.workers = max(1, min(n, len(k.shards), 64))
}

// Workers returns the worker count set by SetWorkers (1 by default).
func (k *Kernel) Workers() int { return k.workers }

// Shards returns the number of event shards.
func (k *Kernel) Shards() int { return len(k.shards) }

// LookaheadTo returns the conservative lookahead of the from->to shard
// channel, or 0 when the pair has no declared channel (or from == to).
func (k *Kernel) LookaheadTo(from, to int) Time {
	v := k.laPair[from*len(k.shards)+to]
	if v == noChannel {
		return 0
	}
	return v
}

// Windows returns the number of synchronization windows executed so far;
// the count depends on the shard layout, never on the worker count. A
// single-shard kernel runs one window per Run/RunUntil call that found work.
//
// Under a saturated workload on a symmetric fabric the round count is a
// policy invariant: the steady-state virtual-time advance per round equals
// the minimum cycle mean of the lookahead matrix (its min-plus eigenvalue),
// and a symmetric matrix's minimum cycle mean is its minimum entry — the
// same advance the global-min policy achieves. The quantity distance-aware
// windows actually shrink is Wakeups.
func (k *Kernel) Windows() uint64 { return k.windows }

// Wakeups returns the total number of per-shard window entries — the sum
// over windows of shards released into that window. This is the real cost of
// conservative synchronization (re-entering a shard's event loop, and
// cache-warming its heap, once per round). Under the distance-aware matrix,
// shards whose window limits run far beyond their neighbors execute in wide
// bursts and sit out the rounds in between; under a uniform minimum
// lookahead every shard with any runnable event is released every round.
func (k *Kernel) Wakeups() uint64 { return k.wakeups }

// Now returns the current virtual time. After RunUntil every shard's clock
// agrees; while a multi-shard window is executing, per-shard clocks diverge
// within the window and Proc.Now/Domain.Now are the authoritative local
// clocks.
func (k *Kernel) Now() Time { return k.shards[0].now }

func (k *Kernel) maxNow() Time {
	t := k.shards[0].now
	for _, sh := range k.shards[1:] {
		if sh.now > t {
			t = sh.now
		}
	}
	return t
}

// Events returns the number of events executed so far (a determinism probe
// and a rough measure of simulation effort), summed deterministically over
// shards. Events that the fast path elides from the heap — a Proc bumping
// the clock for its own wakeup — are counted exactly as if they had been
// queued and popped, so the counter is identical across fast- and slow-path
// executions and across every shard count: the per-shard partition of the
// total varies with the domain-to-shard mapping, the sum never does.
func (k *Kernel) Events() uint64 {
	var n uint64
	for _, sh := range k.shards {
		n += sh.nEvents
	}
	return n
}

// Pending returns the number of events waiting in the timeline: the
// deterministic sum over every shard's heap plus its not-yet-merged inbound
// mailbox. Like Events, the split varies with the shard mapping but the sum
// is mapping-invariant.
func (k *Kernel) Pending() int {
	n := 0
	for _, sh := range k.shards {
		n += sh.heap.len()
		sh.inMu.Lock()
		n += len(sh.inbox)
		sh.inMu.Unlock()
	}
	return n
}

// After schedules fn to run in kernel context d from now, on the default
// domain. fn must not block; it may push to queues, unpark procs, or
// schedule more events.
func (k *Kernel) After(d Time, fn func()) { k.domains[0].After(d, fn) }

// Step executes the next event, if any, and reports whether one ran.
// Procs woken by the event park in the heap for any further time they
// consume, so repeated Step calls interleave exactly like Run. On a
// multi-shard kernel the globally-earliest event (by its canonical key)
// runs.
func (k *Kernel) Step() bool {
	k.drainInboxes()
	var best *shard
	for _, sh := range k.shards {
		if sh.heap.empty() {
			continue
		}
		if best == nil || sh.heap.ev[0].before(&best.heap.ev[0]) {
			best = sh
		}
	}
	if best == nil {
		return false
	}
	best.horizon = noHorizon
	return best.step()
}

// Run executes events until the timeline is empty. Procs parked on empty
// queues or condition variables do not keep the simulation alive.
func (k *Kernel) Run() { k.runWindows(maxHorizon) }

// RunUntil executes events with timestamps <= t and then advances every
// shard's clock to exactly t.
func (k *Kernel) RunUntil(t Time) {
	k.runWindows(t)
	for _, sh := range k.shards {
		if sh.now < t {
			sh.now = t
		}
	}
}

// RunFor executes events for d of virtual time from now.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.maxNow() + d) }

// Close kills every live Proc so their coroutines exit, and stops any
// helper goroutines, returning once they have exited. The kernel must be
// idle (called from outside Run). A closed kernel must not be reused.
func (k *Kernel) Close() {
	for _, c := range k.start {
		close(c)
	}
	k.exited.Wait()
	k.start = nil
	k.procMu.Lock()
	procs := k.procs
	k.procs = nil
	k.procMu.Unlock()
	for _, p := range procs {
		if !p.dead {
			p.stop()
		}
		p.dead = true
	}
	for _, sh := range k.shards {
		sh.heap.ev = nil
		sh.inbox = nil
	}
}

// LiveProcs returns the number of procs that have started and not finished,
// useful for detecting stuck simulations in tests.
func (k *Kernel) LiveProcs() int {
	k.procMu.Lock()
	defer k.procMu.Unlock()
	n := 0
	for _, p := range k.procs {
		if p.started && !p.dead {
			n++
		}
	}
	return n
}
