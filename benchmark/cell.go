package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/exec"
	"islands/internal/sim"
)

// meteredSource wraps the workload generator, the only thing the program
// under test receives from the benchmark. It counts requests and the widest
// update set (the in-flight bound of the atomicity check) and, in a traced
// repetition, times every Next. Counters are atomic because a sharded
// kernel calls Next from several goroutines; timing is only enabled on the
// single-shard path and needs no lock.
type meteredSource struct {
	src        engine.RequestSource
	calls      atomic.Uint64
	maxUpdates atomic.Int64
	timed      bool
	nexts      [][2]time.Time
}

func (s *meteredSource) Next(inst engine.InstanceID, worker int) engine.Request {
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	r := s.src.Next(inst, worker)
	if s.timed {
		s.nexts = append(s.nexts, [2]time.Time{t0, time.Now()})
	}
	s.calls.Add(1)
	var updates int64
	for i := range r.Ops {
		if r.Ops[i].Kind == engine.OpUpdate {
			updates++
		}
	}
	for {
		cur := s.maxUpdates.Load()
		if updates <= cur || s.maxUpdates.CompareAndSwap(cur, updates) {
			break
		}
	}
	return r
}

// cellRep is what one repetition of a cell workload measured: host
// durations of each phase, and the simulated statistics of the timed window.
type cellRep struct {
	build, start, warmup, window, close time.Duration
	setup                               time.Duration // repetition start to window start
	total                               time.Duration // setup + window + close
	mallocs                             uint64        // heap objects allocated in the window

	m         core.Measurement
	events    uint64 // kernel events executed in the window
	pending   int    // kernel events queued at window end
	windows   uint64 // kernel synchronization rounds (sharded kernels)
	wakeups   uint64
	walBytes  uint64
	bpHits    uint64
	bpMisses  uint64
	nextCalls uint64
	nextTime  time.Duration // traced repetitions only

	digest string
}

// simDigest is every simulated statistic a repetition must reproduce.
type simDigest struct {
	Committed, Aborted, Local, Multisite uint64
	TxnTime                              sim.Time
	Msgs, CrossMsgs, SubWork, Prepares   uint64
	Events, MemAccesses                  uint64
	Breakdown                            exec.Breakdown
	PerInstance                          []uint64
}

// runCellRep performs one repetition: exactly what the study executor pays
// per cell — build, workload, Start, warm-up, timed window, Close. Modelled
// caches and buffer pools start empty; first-touch page synthesis that falls
// inside the window stays there, because every real cell pays it. verify
// adds the atomicity check between the window and Close, outside every
// timing. A panic anywhere inside fails the repetition.
func runCellRep(spec cellSpec, z sizing, seed int64, shards, rep int, tr *tracer, verify bool) (r cellRep, err error) {
	var d *core.Deployment
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("repetition %d panicked: %v", rep, p)
			if d != nil {
				d.Close()
			}
		}
	}()

	t0 := time.Now()
	cfg := spec.config(seed)
	cfg.Shards = shards
	d = core.NewDeployment(cfg)
	t1 := time.Now()
	src := &meteredSource{src: spec.source(seed, d), timed: tr != nil}
	t2 := time.Now()
	d.Start(src)
	t3 := time.Now()
	d.Kernel.RunFor(z.warmup())
	t4 := time.Now()

	events0 := d.Kernel.Events()
	var tail0, hits0, miss0 uint64
	for _, in := range d.Instances {
		tail0 += uint64(in.Wal().Tail())
		hits0 += in.BufferPool().Hits
		miss0 += in.BufferPool().Misses
	}
	calls0 := src.calls.Load()
	src.nexts = src.nexts[:0]

	w := startWatch()
	r.m = d.Run(0, spec.window)
	win := w.stop()
	tw0, tw1 := w.t0, w.t0.Add(win.elapsed)

	r.events = d.Kernel.Events() - events0
	r.pending = d.Kernel.Pending()
	r.windows, r.wakeups = d.Kernel.Windows(), d.Kernel.Wakeups()
	for _, in := range d.Instances {
		r.walBytes += uint64(in.Wal().Tail())
		r.bpHits += in.BufferPool().Hits
		r.bpMisses += in.BufferPool().Misses
	}
	r.walBytes -= tail0
	r.bpHits -= hits0
	r.bpMisses -= miss0
	r.nextCalls = src.calls.Load() - calls0
	if verify {
		if err := checkAtomicity(d, uint64(src.maxUpdates.Load())); err != nil {
			d.Close()
			return r, err
		}
	}

	t5 := time.Now()
	d.Close()
	t6 := time.Now()

	r.build, r.start, r.warmup = t1.Sub(t0), t3.Sub(t2), t4.Sub(t3)
	r.window, r.close, r.mallocs = win.elapsed, t6.Sub(t5), win.mallocs
	r.setup = tw0.Sub(t0)
	r.total = r.setup + r.window + r.close
	r.digest = digestOf(simDigest{
		Committed: r.m.Committed, Aborted: r.m.Aborted, Local: r.m.Local, Multisite: r.m.Multisite,
		TxnTime: r.m.TxnTime, Msgs: r.m.Msgs, CrossMsgs: r.m.CrossMsgs, SubWork: r.m.SubWork,
		Prepares: r.m.Prepares, Events: r.events, MemAccesses: r.m.Mem.Accesses,
		Breakdown: r.m.Breakdown, PerInstance: r.m.PerInstance,
	})
	if r.m.Committed == 0 {
		return r, fmt.Errorf("repetition %d committed no transaction in the window", rep)
	}

	if tr != nil {
		root := tr.add("benchmark.repetition", t0, t6, -1, rep, 0)
		tr.add("core.NewDeployment", t0, t1, root, rep, 0)
		tr.add("workload.New", t1, t2, root, rep, 0)
		tr.add("core.Start", t2, t3, root, rep, 0)
		tr.add("sim.RunFor(warm-up)", t3, t4, root, rep, 0)
		run := tr.add("core.Run(window)", tw0, tw1, root, rep, 0)
		for _, n := range src.nexts {
			tr.add("workload.Next", n[0], n[1], run, rep, 0)
			r.nextTime += n[1].Sub(n[0])
		}
		tr.add("core.Close", t5, t6, root, rep, 0)
	}
	return r, nil
}

// checkAtomicity is the invariant of core/invariant_test.go at one virtual
// instant: the machine-wide sum of row versions equals the committed row
// updates plus the bumps of in-flight transactions, at most one per worker
// and each at most maxUpdates rows wide.
func checkAtomicity(d *core.Deployment, maxUpdates uint64) error {
	var versions, committed, workers uint64
	for _, in := range d.Instances {
		versions += in.SumRowVersions()
		committed += in.Stats.RowsCommitted
		workers += uint64(len(in.Cores))
	}
	if inflight := workers * maxUpdates; versions < committed || versions > committed+inflight {
		return fmt.Errorf("atomicity violated: sum(row versions)=%d, rows committed=%d (+<=%d in flight)",
			versions, committed, inflight)
	}
	return nil
}
