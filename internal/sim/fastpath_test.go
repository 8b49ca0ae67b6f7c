package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSameTimestampMixedOrdering verifies FIFO tie-breaking across the three
// event kinds (proc wakeups, plain callbacks, argument callbacks): events at
// one timestamp run in scheduling order regardless of payload form.
func TestSameTimestampMixedOrdering(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var order []string
	q := NewQueue[int](k)
	q.PopFunc(func(v int) { order = append(order, fmt.Sprintf("arg%d", v)) })

	k.Spawn("p1", func(p *Proc) {
		p.Advance(10)
		order = append(order, "p1")
	})
	k.After(10, func() { order = append(order, "fn1") })
	q.PushAfter(10, 1)
	k.Spawn("p2", func(p *Proc) {
		p.Advance(10)
		order = append(order, "p2")
	})
	k.After(10, func() { order = append(order, "fn2") })
	q.PushAfter(10, 2)
	k.Run()

	// The callbacks were scheduled at t=0 during setup; the procs' own
	// wakeups were scheduled later, when each proc first ran its Advance.
	// FIFO on the shared timestamp follows scheduling order exactly.
	want := []string{"fn1", "arg1", "fn2", "arg2", "p1", "p2"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestInlineCallbackExecution verifies that a Proc advancing across pending
// kernel callbacks runs them inline, in order, at their own timestamps.
func TestInlineCallbackExecution(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var fires []Time
	k.Spawn("p", func(p *Proc) {
		k.After(5, func() { fires = append(fires, p.Now()) })
		k.After(10, func() { fires = append(fires, p.Now()) })
		p.Advance(20) // both callbacks are due before the target
		if p.Now() != 20 {
			t.Errorf("Now() = %v after Advance(20), want 20", p.Now())
		}
	})
	k.Run()
	want := []Time{5, 10}
	if !reflect.DeepEqual(fires, want) {
		t.Errorf("callback fire times = %v, want %v", fires, want)
	}
}

// TestStepAndRunEquivalence verifies that single-stepping (which disables
// the inline fast path) and Run (which uses it) produce identical traces and
// identical Events() counts, and that the cached fast-path limit holds after
// every step of either.
func TestStepAndRunEquivalence(t *testing.T) {
	var w fastWatch
	script := func(k *Kernel) *[]string {
		var trace []string
		q := NewQueue[int](k)
		var mu Mutex
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				sh := p.dom.sh
				for s := 0; s < 5; s++ {
					p.Advance(Time(3*i + s))
					w.check(sh)
					mu.Lock(p)
					w.check(sh)
					p.Advance(2)
					w.check(sh)
					mu.Unlock(p)
					w.check(sh)
					q.Push(10*i + s)
					w.check(sh)
					if v, ok := q.TryPop(); ok {
						trace = append(trace, fmt.Sprintf("pop%d@%d", v, p.Now()))
					}
				}
				trace = append(trace, fmt.Sprintf("done%d@%d", i, p.Now()))
			})
		}
		return &trace
	}

	k1 := NewKernel()
	defer k1.Close()
	t1 := script(k1)
	k1.Run()

	k2 := NewKernel()
	defer k2.Close()
	t2 := script(k2)
	for k2.Step() {
		w.checkAll(k2)
	}
	w.checkAll(k1)
	w.verdict(t, "Run and Step")

	if !reflect.DeepEqual(*t1, *t2) {
		t.Errorf("Run trace %v != Step trace %v", *t1, *t2)
	}
	if k1.Events() != k2.Events() {
		t.Errorf("Run Events() = %d, Step Events() = %d", k1.Events(), k2.Events())
	}
}

// TestRunUntilDoesNotOvershoot verifies the fast path respects the horizon:
// a Proc advancing past the RunUntil bound must not drag the clock with it.
func TestRunUntilDoesNotOvershoot(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var resumed []Time
	k.Spawn("p", func(p *Proc) {
		p.Advance(30)
		resumed = append(resumed, p.Now())
		p.Advance(40)
		resumed = append(resumed, p.Now())
	})
	k.RunUntil(50)
	if k.Now() != 50 {
		t.Fatalf("Now() = %v after RunUntil(50), want 50", k.Now())
	}
	if want := []Time{30}; !reflect.DeepEqual(resumed, want) {
		t.Fatalf("resumed = %v before the bound, want %v", resumed, want)
	}
	k.RunUntil(100)
	if want := []Time{30, 70}; !reflect.DeepEqual(resumed, want) {
		t.Fatalf("resumed = %v after the bound, want %v", resumed, want)
	}
}

// TestKernelFnPanicPropagates verifies a panic in a kernel-context callback
// reaches the Run caller.
func TestKernelFnPanicPropagates(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.After(5, func() { panic("fn-boom") })
	defer func() {
		if r := recover(); r != "fn-boom" {
			t.Errorf("recovered %v, want fn-boom", r)
		}
	}()
	k.Run()
	t.Fatal("Run returned without panicking")
}

// TestInlineFnPanicPropagates verifies a panic in a callback that an
// advancing Proc executes inline still reaches the Run caller.
func TestInlineFnPanicPropagates(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("p", func(p *Proc) {
		k.After(5, func() { panic("inline-boom") })
		p.Advance(20) // runs the callback inline on p's coroutine
	})
	defer func() {
		if r := recover(); r != "inline-boom" {
			t.Errorf("recovered %v, want inline-boom", r)
		}
	}()
	k.Run()
	t.Fatal("Run returned without panicking")
}

// TestCloseDuringBlockedPrimitives verifies Close unwinds procs parked deep
// inside synchronization primitives (mutex queues, queue pops), not just
// bare Park.
func TestCloseDuringBlockedPrimitives(t *testing.T) {
	k := NewKernel()
	var mu Mutex
	q := NewQueue[int](k)
	k.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Park() // hold the mutex forever
	})
	k.Spawn("waiter", func(p *Proc) {
		mu.Lock(p)
	})
	k.Spawn("popper", func(p *Proc) {
		q.Pop(p)
	})
	k.Run()
	if live := k.LiveProcs(); live != 3 {
		t.Fatalf("LiveProcs = %d, want 3", live)
	}
	k.Close()
	if live := k.LiveProcs(); live != 0 {
		t.Fatalf("LiveProcs after Close = %d, want 0", live)
	}
}

// TestPushAfterOutOfOrderDelays verifies deferred deliveries arrive in
// virtual-time order even when scheduled with out-of-order delays, and that
// delivery slots are recycled without disturbing values.
func TestPushAfterOutOfOrderDelays(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	var got []int
	q.PopFunc(func(v int) { got = append(got, v) })
	q.PushAfter(30, 1)
	q.PushAfter(10, 2)
	q.PushAfter(20, 3)
	k.Run()
	if want := []int{2, 3, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order = %v, want %v", got, want)
	}
	// Second wave reuses freed slots.
	q.PushAfter(5, 4)
	q.PushAfter(1, 5)
	k.Run()
	if want := []int{2, 3, 1, 5, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order after slot reuse = %v, want %v", got, want)
	}
}

// TestPopFuncDrainsQueued verifies PopFunc drains items queued before
// registration, then consumes subsequent pushes synchronously.
func TestPopFuncDrainsQueued(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	q.Push(1)
	q.Push(2)
	var got []int
	q.PopFunc(func(v int) { got = append(got, v) })
	q.Push(3)
	if want := []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	if q.Pushes != 3 || q.Pops != 3 {
		t.Fatalf("Pushes/Pops = %d/%d, want 3/3", q.Pushes, q.Pops)
	}
}

// TestAdvanceFastPathCountsEvents pins the Events() accounting of the fast
// path: an elided wakeup counts exactly like a queued one.
func TestAdvanceFastPathCountsEvents(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(1)
		}
	})
	k.Run()
	// 1 spawn event + 10 advances.
	if k.Events() != 11 {
		t.Errorf("Events() = %d, want 11", k.Events())
	}
}
