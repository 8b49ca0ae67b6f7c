package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewShardedValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("NewSharded(0, 10)", func() { NewSharded(0, 10) })
	expectPanic("NewSharded(2, 0)", func() { NewSharded(2, 0) })
	expectPanic("NewSharded(2, -5)", func() { NewSharded(2, -5) })
	// A single shard needs no lookahead: there are no cross-shard sends.
	NewSharded(1, 0).Close()
}

// TestCrossShardZeroLookaheadPanics pins the contract that a cross-shard
// delivery shorter than the kernel's conservative lookahead fails loudly at
// the send, with a message that names the violation, instead of silently
// corrupting the destination shard's timeline — on the default inline
// kernel (one worker) exactly as with several.
func TestCrossShardZeroLookaheadPanics(t *testing.T) {
	k := NewSharded(2, 100)
	defer k.Close()
	if k.Workers() != 1 {
		t.Fatalf("default Workers() = %d, want 1 (inline)", k.Workers())
	}
	src := k.NewDomain(0)
	dst := k.NewDomain(1)
	q := NewQueueIn[int](dst)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-shard PushAfterFrom below lookahead did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "conservative lookahead") {
			t.Fatalf("panic = %v, want a message naming the conservative lookahead", r)
		}
	}()
	q.PushAfterFrom(src, 99, 1)
}

func TestCrossShardAtLookaheadIsAllowed(t *testing.T) {
	k := NewSharded(2, 100)
	defer k.Close()
	src := k.NewDomain(0)
	dst := k.NewDomain(1)
	q := NewQueueIn[int](dst)
	var got []int
	q.PopFunc(func(v int) { got = append(got, v) })
	q.PushAfterFrom(src, 100, 7) // exactly the lookahead: legal
	q.PushAfterFrom(src, 250, 8)
	k.Run()
	if want := []int{7, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
}

// TestShardedWorkerPanicPropagates checks that a panic inside a shard's
// window re-raises on the caller — and that when several shards panic in
// the same window the lowest shard id wins at every worker count: inline
// runs shards in index order, workers re-raise in index order after the join.
func TestShardedWorkerPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		func() {
			k := NewSharded(3, 50)
			defer k.Close()
			k.SetWorkers(workers)
			for i := 2; i >= 1; i-- {
				i := i
				k.NewDomain(i).Spawn("bomb", func(p *Proc) {
					p.Advance(10)
					panic(fmt.Sprintf("boom %d", i))
				})
			}
			defer func() {
				if r := recover(); r != "boom 1" {
					t.Errorf("workers=%d: recovered %v, want boom 1", workers, r)
				}
			}()
			k.Run()
			t.Errorf("workers=%d: Run returned without panicking", workers)
		}()
	}
}

// TestInlineWindowsStartNoGoroutines pins the default kernel's promise: a
// partitioned kernel at one worker runs every window on the caller — the
// process has no more goroutines after the run than before it (procs are
// coroutines, created at Spawn) and none of them is a kernel helper — while
// two workers start exactly one helper, which Close waits out.
func TestInlineWindowsStartNoGoroutines(t *testing.T) {
	// helpers counts live goroutines executing Kernel.serve. One that has
	// signalled its exit may still be unwinding, so give the scheduler a few
	// turns to reach the wanted count before reporting.
	helpers := func(want int) int {
		buf := make([]byte, 1<<20)
		for i := 0; ; i++ {
			n := strings.Count(string(buf[:runtime.Stack(buf, true)]), "sim.(*Kernel).serve")
			if n == want || i == 1000 {
				return n
			}
			runtime.Gosched()
		}
	}
	build := func(workers int) *Kernel {
		k := NewSharded(4, 100)
		k.SetWorkers(workers)
		for i := 0; i < 4; i++ {
			k.NewDomain(i).Spawn("w", func(p *Proc) {
				for {
					p.Advance(30)
				}
			})
		}
		return k
	}

	k := build(1)
	before := runtime.NumGoroutine()
	k.RunUntil(3000)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("inline run started goroutines: %d before, %d after", before, after)
	}
	if n := helpers(0); n != 0 {
		t.Errorf("inline run left %d helper goroutines, want 0", n)
	}
	if k.Windows() < 2 {
		t.Errorf("Windows() = %d, want the run to span several windows", k.Windows())
	}
	k.Close()

	k = build(2)
	k.RunUntil(3000)
	if n := helpers(1); n != 1 {
		t.Errorf("2-worker run has %d helper goroutines, want 1", n)
	}
	k.Close()
	if n := helpers(0); n != 0 {
		t.Errorf("%d helper goroutines survive Close, want 0", n)
	}
}

func TestShardedRunUntilAdvancesAllClocks(t *testing.T) {
	k := NewSharded(3, 50)
	defer k.Close()
	// One flag per domain: events in the same window run concurrently on
	// different shards, so shared test state must be shard-local too.
	fired := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		d := k.NewDomain(i)
		d.After(500, func() { fired[i] = true })
	}
	count := func() int {
		n := 0
		for _, f := range fired {
			if f {
				n++
			}
		}
		return n
	}
	k.RunUntil(100)
	if n := count(); n != 0 {
		t.Fatalf("%d events at 500 fired during RunUntil(100)", n)
	}
	if k.Now() != 100 || k.maxNow() != 100 {
		t.Fatalf("clocks = %v..%v after RunUntil(100), want 100", k.Now(), k.maxNow())
	}
	k.RunUntil(1000)
	if n := count(); n != 3 {
		t.Fatalf("fired = %d by 1000, want 3", n)
	}
	if k.Now() != 1000 || k.maxNow() != 1000 {
		t.Fatalf("clocks = %v..%v after RunUntil(1000), want 1000", k.Now(), k.maxNow())
	}
}

// uniformFloors is the per-domain-pair delivery floor matrix of a fabric
// where every pair is equally far apart.
func uniformFloors(nDoms int, la Time) [][]Time {
	f := make([][]Time, nDoms)
	for i := range f {
		f[i] = make([]Time, nDoms)
		for j := range f[i] {
			if i != j {
				f[i][j] = la
			}
		}
	}
	return f
}

// randomFloors derives a deterministic pseudo-random per-domain-pair
// delivery floor matrix from seed. Floors only depend on the domain pair —
// never on the shard count — so folding them to any shard mapping yields a
// kernel the same script is legal on.
func randomFloors(seed int64, nDoms int) [][]Time {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	f := uniformFloors(nDoms, 0)
	for i := range f {
		for j := range f[i] {
			if i != j {
				f[i][j] = Time(50 + rng.Intn(400))
			}
		}
	}
	return f
}

// foldFloors folds the per-domain floor matrix to a per-shard lookahead
// matrix under the round-robin mapping domain i -> shard i%shards: each
// shard pair's lookahead is the minimum floor over its domain pairs, exactly
// how a deployment with fewer shards than islands would fold its wire floors.
func foldFloors(f [][]Time, shards int) [][]Time {
	la := make([][]Time, shards)
	for a := range la {
		la[a] = make([]Time, shards)
	}
	for i := range f {
		for j := range f[i] {
			a, b := i%shards, j%shards
			if a == b || i == j {
				continue
			}
			if la[a][b] == 0 || f[i][j] < la[a][b] {
				la[a][b] = f[i][j]
			}
		}
	}
	return la
}

// scriptRun is everything one run of messageScript exposes.
type scriptRun struct {
	traces          [][]string // per domain: sends and receives, with timestamps
	events, windows uint64
}

// messageScript runs a deterministic pseudo-random message-passing workload —
// one domain per row of the floor matrix f, ping-ponging over queues with
// cross-domain delays at or above the pair's floor — on a kernel of the
// given shard and worker counts, built from the folded floors. The script
// itself never mentions shards or workers: domains are mapped round-robin,
// so any difference between layouts is a determinism bug.
func messageScript(seed int64, f [][]Time, shards, workers, steps int) scriptRun {
	nDoms := len(f)
	k := NewShardedMatrix(foldFloors(f, shards))
	defer k.Close()
	k.SetWorkers(workers)
	doms := make([]*Domain, nDoms)
	queues := make([]*Queue[int], nDoms)
	traces := make([][]string, nDoms)
	for i := range doms {
		doms[i] = k.NewDomain(i % shards)
		queues[i] = NewQueueIn[int](doms[i])
	}
	for i := range doms {
		i := i
		d := doms[i]
		queues[i].PopFunc(func(v int) {
			traces[i] = append(traces[i], fmt.Sprintf("recv %d@%d", v, d.Now()))
		})
		rng := rand.New(rand.NewSource(seed + int64(i)))
		d.Spawn(fmt.Sprintf("d%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Advance(Time(rng.Intn(150)))
				to := rng.Intn(nDoms)
				// Delays respect the DOMAIN pair floor, which is >= the
				// folded shard pair lookahead under every mapping;
				// self-sends may be shorter.
				dur := f[i][to] + Time(rng.Intn(300))
				if to == i {
					dur = Time(rng.Intn(50))
				}
				msg := i*1_000_000 + s
				queues[to].PushAfterFrom(d, dur, msg)
				traces[i] = append(traces[i], fmt.Sprintf("sent %d->%d@%d", msg, to, p.Now()))
			}
		})
	}
	k.Run()
	return scriptRun{traces, k.Events(), k.Windows()}
}

// layoutInvariant runs the script single-shard — the classic one-heap
// kernel — and then, at every shard count given, inline (one worker) and
// with 2 and 4 workers. Traces and Events() must be byte-equal everywhere;
// Windows() depends on the shard layout but never on the worker count.
func layoutInvariant(t *testing.T, seed int64, f [][]Time, shardCounts []int, steps int) bool {
	ref := messageScript(seed, f, 1, 1, steps)
	for _, shards := range shardCounts {
		inline := messageScript(seed, f, shards, 1, steps)
		for _, workers := range []int{1, 2, 4} {
			got := inline
			if workers > 1 {
				got = messageScript(seed, f, shards, workers, steps)
			}
			if got.events != ref.events {
				t.Logf("seed %d, %d shards, %d workers: Events() = %d, want %d",
					seed, shards, workers, got.events, ref.events)
				return false
			}
			if got.windows != inline.windows {
				t.Logf("seed %d, %d shards: Windows() = %d at %d workers, %d inline",
					seed, shards, got.windows, workers, inline.windows)
				return false
			}
			for i := range ref.traces {
				if !reflect.DeepEqual(got.traces[i], ref.traces[i]) {
					t.Logf("seed %d, %d shards, %d workers: domain %d trace diverges:\n got %v\nwant %v",
						seed, shards, workers, i, got.traces[i], ref.traces[i])
					return false
				}
			}
		}
	}
	return true
}

// TestShardedMatchesSingle is the cross-shard ordering property test: for
// random seeds, the same workload must produce byte-identical traces and
// event counts on the single-shard kernel and on 2, 3, 4 and 6 shards (one
// per domain, the deployment default), inline and with 2 and 4 workers. This
// is the kernel-level statement of the determinism guarantee — (at, dom,
// seq) keys are assigned by the scheduling domain, so execution order is
// independent of the shard mapping, of the worker count and of goroutine
// interleaving.
func TestShardedMatchesSingle(t *testing.T) {
	const nDoms, steps = 6, 40
	f := func(seed int64) bool {
		return layoutInvariant(t, seed, uniformFloors(nDoms, 200), []int{2, 3, 4, nDoms}, steps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestShardedMatrixMatchesSingle extends TestShardedMatchesSingle to random
// floor topologies: a random per-domain floor matrix folded to 2, 4 and 8
// (one per domain) shards.
func TestShardedMatrixMatchesSingle(t *testing.T) {
	const nDoms, steps = 8, 40
	f := func(seed int64) bool {
		return layoutInvariant(t, seed, randomFloors(seed, nDoms), []int{2, 4, nDoms}, steps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestShardedStepMatchesRun checks that single-stepping a multi-shard kernel
// executes the same global event order as Run on one shard.
func TestShardedStepMatchesRun(t *testing.T) {
	trace := func(step bool) []string {
		var out []string
		shards := 1
		if step {
			shards = 3
		}
		k := NewSharded(shards, 100)
		defer k.Close()
		for i := 0; i < 3; i++ {
			i := i
			d := k.NewDomain(i % shards)
			for j := 0; j < 4; j++ {
				j := j
				d.After(Time(100*j+10*i), func() {
					out = append(out, fmt.Sprintf("d%d.%d@%d", i, j, d.Now()))
				})
			}
		}
		if step {
			for k.Step() {
			}
		} else {
			k.Run()
		}
		return out
	}
	ref, got := trace(false), trace(true)
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("stepped 3-shard trace = %v, want %v", got, ref)
	}
}

func TestNewShardedMatrixValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("empty matrix", func() { NewShardedMatrix(nil) })
	expectPanic("ragged matrix", func() {
		NewShardedMatrix([][]Time{{0, 10}, {10}})
	})
	// Entries <= 0 off the diagonal declare "no channel"; the kernel is
	// valid, but a send over the missing channel fails loudly.
	k := NewShardedMatrix([][]Time{{0, 100}, {0, 0}})
	defer k.Close()
	if got := k.LookaheadTo(0, 1); got != 100 {
		t.Errorf("LookaheadTo(0,1) = %v, want 100", got)
	}
	if got := k.LookaheadTo(1, 0); got != 0 {
		t.Errorf("LookaheadTo(1,0) = %v, want 0 (no channel)", got)
	}
	src := k.NewDomain(1)
	dst := k.NewDomain(0)
	q := NewQueueIn[int](dst)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("send over an undeclared channel did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "no channel") {
			t.Fatalf("panic = %v, want a message naming the missing channel", r)
		}
	}()
	q.PushAfterFrom(src, 1_000_000, 1)
}

// TestMatrixWindowsFewerThanGlobalMin pins the windowing win on a kernel
// whose lookahead matrix is genuinely asymmetric: two busy shards coupled by
// a fast 0->1 channel and a slow 1->0 channel. A kernel told only the global
// minimum (a uniform matrix of the smallest entry, 100) must synchronize
// every 100 of virtual time; the distance-aware limits advance at the
// matrix's min cycle mean ((100+1000)/2 = 550), so the same script runs in a
// fraction of the rounds — with a byte-identical trace.
func TestMatrixWindowsFewerThanGlobalMin(t *testing.T) {
	// Traces are kept per domain: with several workers, events in the same
	// window run concurrently on different shards.
	type res struct {
		traces [2][]string
		w      uint64
	}
	runSep := func(k *Kernel) res {
		defer k.Close()
		var r res
		for i := 0; i < 2; i++ {
			i := i
			d := k.NewDomain(i)
			d.Spawn(fmt.Sprintf("d%d", i), func(p *Proc) {
				for s := 0; s < 100; s++ {
					p.Advance(100)
					r.traces[i] = append(r.traces[i], fmt.Sprintf("d%d.%d@%d", i, s, p.Now()))
				}
			})
		}
		k.Run()
		r.w = k.Windows()
		return r
	}
	m, g := runSep(NewShardedMatrix([][]Time{{0, 100}, {1000, 0}})), runSep(NewSharded(2, 100))
	if !reflect.DeepEqual(m.traces, g.traces) {
		t.Fatalf("traces diverge between lookahead matrices:\nmatrix %v\nglobal %v", m.traces, g.traces)
	}
	if m.w >= g.w {
		t.Errorf("matrix windows = %d, want fewer than global-min %d", m.w, g.w)
	}
	if g.w < 50 {
		t.Errorf("global-min windows = %d, want ~100 (min-entry pacing)", g.w)
	}
	t.Logf("windows: matrix=%d global-min=%d", m.w, g.w)
}

// TestChannelFreeShardsRunOneWindowPerCall: shards of a kernel whose matrix
// declares no channel at all cannot influence each other, so nothing bounds
// a shard's window but the call itself — every RunUntil that finds work is
// exactly one window, at any worker count, and each domain's trace is the
// one a windowed kernel produces.
func TestChannelFreeShardsRunOneWindowPerCall(t *testing.T) {
	run := func(k *Kernel) (traces [3][]Time, windows []uint64) {
		defer k.Close()
		for i := 0; i < 3; i++ {
			i := i
			k.NewDomain(i).Spawn(fmt.Sprintf("d%d", i), func(p *Proc) {
				for {
					p.Advance(Time(70 + 10*i))
					traces[i] = append(traces[i], p.Now())
				}
			})
		}
		for _, until := range []Time{1000, 1000, 5000, 100000} {
			k.RunUntil(until)
			windows = append(windows, k.Windows())
		}
		return traces, windows
	}
	want, paced := run(NewSharded(3, 50))
	if paced[len(paced)-1] < 100 {
		t.Fatalf("the lookahead-50 reference ran %d windows, want a windowed run", paced[len(paced)-1])
	}
	for _, workers := range []int{1, 3} {
		k := NewShardedMatrix([][]Time{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}})
		k.SetWorkers(workers)
		got, windows := run(k)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: traces diverge from the windowed kernel", workers)
		}
		// The second RunUntil(1000) finds every event beyond its bound.
		if !reflect.DeepEqual(windows, []uint64{1, 1, 2, 3}) {
			t.Errorf("%d workers: Windows() after each call = %v, want [1 1 2 3]", workers, windows)
		}
	}
}
