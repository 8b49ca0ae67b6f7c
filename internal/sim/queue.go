package sim

import "fmt"

// Queue is an unbounded virtual-time FIFO channel between Procs.
// Pop blocks the calling Proc until an item is available. PushAfter models
// delivery latency (e.g. a message crossing the interconnect).
//
// A queue is owned by a domain (NewQueueIn); its consumers and
// same-partition producers run on that domain's event partition. Producers
// on *other* partitions must use PushAfterFrom, which routes through the
// destination partition's inbound mailbox under the kernel's conservative
// lookahead.
//
// A queue can alternatively feed a kernel-context consumer registered with
// PopFunc: items are then handed to the callback synchronously at delivery
// time, with no Proc, no parking, and no goroutine switches — the fast path
// for service loops whose handlers never block.
type Queue[T any] struct {
	dom     *Domain
	items   fifo[T]
	waiters waitList
	popFn   func(T)

	// Deferred-delivery buffers: values park in slots, and the timeline
	// holds one pre-bound (deliver, slot) event per pending value, so a
	// delayed push costs no per-event closure allocation. local serves
	// producers on the queue's own partition and is touched by that
	// partition alone; cross serves producers on other partitions, which may
	// run on other goroutines, so it is only touched under the owning
	// partition's inbox mutex.
	deliver      func(uint32)
	local        slotTable[T]
	deliverCross func(uint32)
	cross        slotTable[T]

	// Pushes and Pops count completed operations; MaxDepth tracks the
	// high-water mark of queued items (a congestion probe).
	Pushes   uint64
	Pops     uint64
	MaxDepth int
}

// NewQueue returns an empty queue owned by k's default domain.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return NewQueueIn[T](k.DefaultDomain())
}

// NewQueueIn returns an empty queue owned by domain d.
func NewQueueIn[T any](d *Domain) *Queue[T] {
	return &Queue[T]{dom: d}
}

// firstCap is the capacity of a queue's first item array and of its slot
// tables' first arrays: one allocation holds what most queues ever hold at
// once, where growing by append from nothing took one per doubling up to
// there.
const firstCap = 8

// slotTable parks values awaiting deferred delivery. Released slots form
// a free list threaded through vals and are reused first, so a steady
// stream of deliveries allocates nothing.
type slotTable[T any] struct {
	vals []slot[T]
	free uint32 // 1 + the first free slot's index; 0 when none is free
}

type slot[T any] struct {
	v    T
	next uint32 // while free: the free list's next link, like slotTable.free
}

func (t *slotTable[T]) put(v T) uint32 {
	if t.free != 0 {
		i := t.free - 1
		t.free = t.vals[i].next
		t.vals[i].v = v
		return i
	}
	if t.vals == nil {
		t.vals = make([]slot[T], 0, firstCap)
	}
	t.vals = append(t.vals, slot[T]{v: v})
	return uint32(len(t.vals) - 1)
}

func (t *slotTable[T]) take(i uint32) T {
	s := &t.vals[i]
	v := s.v
	var zero T
	s.v, s.next = zero, t.free
	t.free = i + 1
	return v
}

// Push enqueues v immediately and wakes one waiting Proc, if any.
// It never blocks, so it may be called from kernel-context functions.
// With a PopFunc registered, v is handed to the consumer instead.
// Must be called from the owning domain's partition.
func (q *Queue[T]) Push(v T) {
	q.Pushes++
	if q.popFn != nil {
		q.Pops++
		q.popFn(v)
		return
	}
	if q.items.items == nil {
		q.items.items = make([]T, 0, firstCap)
	}
	q.items.push(v)
	if d := q.items.len(); d > q.MaxDepth {
		q.MaxDepth = d
	}
	if w, ok := q.waiters.pop(); ok {
		w.Unpark()
	}
}

// PushAfter enqueues v after d of virtual time has passed, keyed by the
// queue's own domain. Must be called from the owning domain's partition.
func (q *Queue[T]) PushAfter(d Time, v T) {
	q.pushAfterKeyed(q.dom, d, v)
}

// PushAfterFrom enqueues v after dur of virtual time, keyed by the
// scheduling domain src — the one whose activity causes the delivery (a
// message's sender). The (at, src, srcSeq) key is assigned here, at schedule
// time, so delivery order is identical whether src and the queue share a
// partition or not.
//
// When src lives on a different partition than the queue's owner, the event
// is routed through the destination partition's inbound mailbox; dur must
// then be at least the conservative lookahead declared for that partition
// pair, or the delivery could land inside the destination's current
// execution window and break determinism — that is a topology-wiring bug,
// and PushAfterFrom panics loudly rather than silently corrupting the
// timeline. The value parks in the queue's cross-partition slot table and
// the mailbox entry is a pre-bound (deliverCross, slot) event, so the
// steady state allocates nothing per message.
func (q *Queue[T]) PushAfterFrom(src *Domain, dur Time, v T) {
	dst := q.dom.sh
	if src.sh == dst {
		q.pushAfterKeyed(src, dur, v)
		return
	}
	k := dst.k
	if floor := k.laPair[src.sh.id*len(k.shards)+dst.id]; dur < floor {
		if floor == noChannel {
			panic(fmt.Sprintf(
				"sim: cross-shard delivery from shard %d to shard %d, but the kernel's lookahead "+
					"matrix declares no channel between them (the pair's conservative lookahead is unset)",
				src.sh.id, dst.id))
		}
		panic(fmt.Sprintf(
			"sim: cross-shard delivery after %d violates the %d->%d channel's conservative lookahead %d; "+
				"cross-shard sends must be delayed by at least the pair's minimum cross-island wire latency "+
				"(same-island traffic belongs on a single shard)", dur, src.sh.id, dst.id, floor))
	}
	src.seq++
	e := event{at: src.sh.now + dur, dom: src.id, seq: src.seq}
	dst.inMu.Lock()
	if q.deliverCross == nil {
		q.deliverCross = q.deliverCrossSlot
	}
	e.fnArg, e.arg = q.deliverCross, q.cross.put(v)
	dst.inbox = append(dst.inbox, e)
	dst.inMu.Unlock()
}

func (q *Queue[T]) pushAfterKeyed(src *Domain, d Time, v T) {
	if q.deliver == nil {
		q.deliver = q.deliverSlot
	}
	src.scheduleArg(q.dom.sh.now+d, q.deliver, q.local.put(v))
}

func (q *Queue[T]) deliverSlot(slot uint32) { q.Push(q.local.take(slot)) }

// deliverCrossSlot runs on the queue's own partition; senders on other
// partitions may be reserving slots concurrently, hence the mutex.
func (q *Queue[T]) deliverCrossSlot(slot uint32) {
	sh := q.dom.sh
	sh.inMu.Lock()
	v := q.cross.take(slot)
	sh.inMu.Unlock()
	q.Push(v)
}

// Pop removes and returns the oldest item, blocking p until one exists.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.items.len() == 0 {
		q.waiters.push(p)
		p.Park()
	}
	v, _ := q.items.pop()
	q.Pops++
	return v
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	v, ok := q.items.pop()
	if ok {
		q.Pops++
	}
	return v, ok
}

// PopFunc registers fn as the queue's kernel-context consumer, draining any
// already-queued items into it first. While a consumer is registered, every
// Push (immediate or deferred) invokes fn(v) synchronously in kernel
// context; fn must not block. A queue should have either parked-Proc
// consumers (Pop) or a PopFunc, never both at once. Passing nil unregisters
// the consumer.
func (q *Queue[T]) PopFunc(fn func(T)) {
	q.popFn = fn
	if fn == nil {
		return
	}
	for {
		v, ok := q.items.pop()
		if !ok {
			return
		}
		q.Pops++
		fn(v)
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }
