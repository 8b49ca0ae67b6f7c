package sim

import "testing"

// BenchmarkKernelWake measures the schedule->wake cycle of a single Proc
// consuming virtual time with nothing else runnable: the kernel-context fast
// path, where Advance bumps the clock inline. Must report 0 allocs/op.
func BenchmarkKernelWake(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelWakeContended measures the same cycle with a second Proc
// interleaving at every timestamp, forcing the slow path: every Advance
// parks in the timer heap and transfers control through the kernel.
func BenchmarkKernelWakeContended(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	for w := 0; w < 2; w++ {
		k.Spawn("w", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkProcHandoff measures six procs on one partition taking turns, the
// shape of a TPC-C island's workers: staggered starts and equal Advances put
// another proc's wake first at every Advance, so each is a handoff through
// the loop owner. One op is one Advance of each proc. Must report 0
// allocs/op.
func BenchmarkProcHandoff(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	const procs = 6
	for w := 0; w < procs; w++ {
		k.SpawnAt(Time(w), "w", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(procs)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkQueueHandoff measures a producer/consumer pair exchanging items
// through a Queue: Push/unpark on one side, Pop/park on the other.
func BenchmarkQueueHandoff(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Advance(1)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Pop(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkQueuePopFunc measures the kernel-context consumer path: delivery
// runs the callback synchronously inside Push, with no Proc at all.
func BenchmarkQueuePopFunc(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	sum := 0
	q.PopFunc(func(v int) { sum += v })
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Advance(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTimerHeap measures raw event scheduling and dispatch through the
// 4-ary heap at a steady queue depth of 1024 timers, with no Procs involved.
func BenchmarkTimerHeap(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	const depth = 1024
	fired := 0
	var tick func()
	tick = func() {
		if fired < b.N {
			fired++
			k.After(Time(1+fired%7), tick)
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		fired++
		k.After(Time(1+i%7), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkPushAfter measures deferred queue delivery (the IPC wire-latency
// path): slot-parked values dispatched by pre-bound kernel callbacks.
func BenchmarkPushAfter(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	k.Spawn("echo", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.PushAfter(3, i)
			q.Pop(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkCrossPartitionDelivery measures a message bouncing between two
// event partitions on the default inline kernel: PushAfterFrom parks the
// value in the destination queue's cross-partition slot table and posts a
// pre-bound event to the destination's mailbox, the next window folds it
// into the heap, and delivery releases the slot. Must report 0 allocs/op.
func BenchmarkCrossPartitionDelivery(b *testing.B) {
	const la = 100
	k := NewSharded(2, la)
	defer k.Close()
	var doms [2]*Domain
	var queues [2]*Queue[int]
	for i := range doms {
		doms[i] = k.NewDomain(i)
		queues[i] = NewQueueIn[int](doms[i])
	}
	for i := range doms {
		i := i
		doms[i].Spawn("bounce", func(p *Proc) {
			for n := i; n < b.N; n += 2 {
				if n > 0 {
					queues[i].Pop(p)
				}
				queues[1-i].PushAfterFrom(doms[i], la, n)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.Events())/b.Elapsed().Seconds(), "events/s")
}
