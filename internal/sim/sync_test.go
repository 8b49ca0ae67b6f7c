package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMutexMutualExclusionInVirtualTime(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var mu Mutex
	type span struct{ start, end Time }
	var spans []span
	for i := 0; i < 8; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			mu.Lock(p)
			s := p.Now()
			p.Advance(100)
			spans = append(spans, span{s, p.Now()})
			mu.Unlock(p)
		})
	}
	k.Run()
	if len(spans) != 8 {
		t.Fatalf("got %d critical sections, want 8", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			t.Errorf("critical sections overlap: %v then %v", spans[i-1], spans[i])
		}
	}
	if mu.Acquires != 8 || mu.Contended != 7 {
		t.Errorf("Acquires=%d Contended=%d, want 8 and 7", mu.Acquires, mu.Contended)
	}
	if mu.Held() {
		t.Error("mutex still held after all procs finished")
	}
}

func TestMutexFIFOGrantOrder(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var mu Mutex
	var order []int
	// p0 grabs the lock; p1..p4 arrive in spawn order and must be granted
	// in that order.
	k.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Advance(1000)
		mu.Unlock(p)
	})
	for i := 1; i <= 4; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Advance(Time(i)) // staggered arrivals
			mu.Lock(p)
			order = append(order, i)
			mu.Unlock(p)
		})
	}
	k.Run()
	if !reflect.DeepEqual(order, []int{1, 2, 3, 4}) {
		t.Errorf("grant order = %v, want [1 2 3 4]", order)
	}
}

func TestMutexTryLock(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var mu Mutex
	k.Spawn("a", func(p *Proc) {
		if !mu.TryLock(p) {
			t.Error("TryLock on free mutex failed")
		}
		p.Advance(100)
		mu.Unlock(p)
	})
	k.Spawn("b", func(p *Proc) {
		p.Advance(50)
		if mu.TryLock(p) {
			t.Error("TryLock on held mutex succeeded")
		}
		p.Advance(100)
		if !mu.TryLock(p) {
			t.Error("TryLock after release failed")
		}
		mu.Unlock(p)
	})
	k.Run()
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var mu Mutex
	k.Spawn("a", func(p *Proc) { mu.Lock(p) })
	k.Spawn("b", func(p *Proc) { mu.Unlock(p) })
	defer func() {
		if recover() == nil {
			t.Error("expected panic from Unlock by non-owner")
		}
	}()
	k.Run()
}

func TestMutexWaitTimeAccounting(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var mu Mutex
	k.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Advance(300)
		mu.Unlock(p)
	})
	k.Spawn("waiter", func(p *Proc) {
		p.Advance(100)
		mu.Lock(p) // waits 200
		mu.Unlock(p)
	})
	k.Run()
	if mu.WaitTime != 200 {
		t.Errorf("WaitTime = %v, want 200", mu.WaitTime)
	}
}

func TestQueueBlockingPop(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[string](k)
	var got string
	var at Time
	k.Spawn("consumer", func(p *Proc) {
		got = q.Pop(p)
		at = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Advance(77)
		q.Push("hello")
	})
	k.Run()
	if got != "hello" || at != 77 {
		t.Errorf("got %q at %v, want hello at 77", got, at)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	var got []int
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Push(i)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Advance(1)
		for i := 0; i < 10; i++ {
			got = append(got, q.Pop(p))
		}
	})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..9 in order", got)
		}
	}
	if q.Pushes != 10 || q.Pops != 10 {
		t.Errorf("Pushes=%d Pops=%d, want 10 and 10", q.Pushes, q.Pops)
	}
}

func TestQueuePushAfterDelay(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	var at Time
	k.Spawn("consumer", func(p *Proc) {
		q.Pop(p)
		at = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Advance(10)
		q.PushAfter(90, 1)
	})
	k.Run()
	if at != 100 {
		t.Errorf("delivery at %v, want 100", at)
	}
}

func TestQueueManyWaiters(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	var served []int
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			v := q.Pop(p)
			served = append(served, i*100+v)
		})
	}
	k.Spawn("producer", func(p *Proc) {
		p.Advance(5)
		for i := 0; i < 4; i++ {
			q.Push(i)
		}
	})
	k.Run()
	if len(served) != 4 {
		t.Fatalf("served %d consumers, want 4: %v", len(served), served)
	}
	// Waiters are served in FIFO order: consumer i gets item i.
	want := []int{0, 101, 202, 303}
	if !reflect.DeepEqual(served, want) {
		t.Errorf("served = %v, want %v", served, want)
	}
}

func TestResourceCapacityLimitsConcurrency(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	r := NewResource(2)
	var ends []Time
	for i := 0; i < 6; i++ {
		k.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 100)
			ends = append(ends, p.Now())
		})
	}
	k.Run()
	// 6 jobs of 100 on 2 servers: pairs finish at 100, 200, 300.
	want := []Time{100, 100, 200, 200, 300, 300}
	if !reflect.DeepEqual(ends, want) {
		t.Errorf("completion times = %v, want %v", ends, want)
	}
	if r.Contended != 4 {
		t.Errorf("Contended = %d, want 4", r.Contended)
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	r := NewResource(1)
	k.Spawn("u", func(p *Proc) {
		p.Advance(50)
		r.Use(p, 50)
	})
	k.Run()
	if u := r.Utilization(k.Now()); u != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", u)
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	r := NewResource(1)
	k.Spawn("bad", func(p *Proc) { r.Release(p) })
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	k.Run()
}

func TestFIFOProperty(t *testing.T) {
	// Pushing then popping any sequence preserves order even across the
	// internal compaction threshold.
	f := func(vals []int) bool {
		var q fifo[int]
		for _, v := range vals {
			q.push(v)
		}
		for i, want := range vals {
			got, ok := q.pop()
			if !ok || got != want {
				_ = i
				return false
			}
		}
		_, ok := q.pop()
		return !ok && q.len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFIFOInterleavedCompaction(t *testing.T) {
	var q fifo[int]
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			v, ok := q.pop()
			if !ok || v != expect {
				t.Fatalf("round %d: pop = %d,%v want %d", round, v, ok, expect)
			}
			expect++
		}
	}
	for q.len() > 0 {
		v, _ := q.pop()
		if v != expect {
			t.Fatalf("drain: got %d want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d items, want %d", expect, next)
	}
}

// TestFIFOEmptiedQueueReusesItsFront: a queue that never holds more than two
// items keeps a backing array of at most two through any number of push/pop
// cycles, and those cycles allocate nothing once it exists. A queue that
// only resets its head past the compaction threshold walks its head along
// the array, and every append past the end reallocates.
func TestFIFOEmptiedQueueReusesItsFront(t *testing.T) {
	var q fifo[*Proc]
	p := new(Proc)
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			q.push(p)
		}
		for i := 0; i < n; i++ {
			if got, ok := q.pop(); !ok || got != p {
				t.Fatalf("pop = %v, %v; want the pushed proc", got, ok)
			}
		}
	}
	cycle(2)
	allocs := testing.AllocsPerRun(10000, func() {
		cycle(1)
		cycle(2)
	})
	if allocs != 0 {
		t.Errorf("push/pop cycles allocate %.2f objects each, want 0", allocs)
	}
	if c := cap(q.items); c > 2 {
		t.Errorf("queue of at most two items has capacity %d, want <= 2", c)
	}
}
