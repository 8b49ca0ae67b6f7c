package lock

import (
	"fmt"
	"runtime"
	"testing"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

func ctxFor(p *sim.Proc, m *mem.Model) *exec.Ctx {
	c := exec.New(p, 0, m, nil)
	c.BD = &exec.Breakdown{}
	return c
}

func run(t *testing.T, fns ...func(p *sim.Proc, ctx *exec.Ctx)) {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	for i, fn := range fns {
		fn := fn
		k.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) { fn(p, ctxFor(p, model)) })
	}
	k.Run()
}

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, X, false},
		{IX, IX, true}, {IX, S, false}, {IX, X, false},
		{S, S, true}, {S, X, false},
		{X, X, false},
	}
	for _, c := range cases {
		if got := compatible(c.a, c.b); got != c.want {
			t.Errorf("compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := compatible(c.b, c.a); got != c.want {
			t.Errorf("compatible(%v,%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestSharedLocksOverlap(t *testing.T) {
	m := NewManager(true)
	key := Key{Space: 1, ID: 7}
	var concurrent int
	run(t,
		func(p *sim.Proc, ctx *exec.Ctx) {
			if err := m.Acquire(ctx, 1, key, S); err != nil {
				t.Errorf("t1: %v", err)
			}
			p.Advance(100)
			m.ReleaseAll(ctx, 1)
		},
		func(p *sim.Proc, ctx *exec.Ctx) {
			p.Advance(10)
			if err := m.Acquire(ctx, 2, key, S); err != nil {
				t.Errorf("t2: %v", err)
			}
			concurrent++
			m.ReleaseAll(ctx, 2)
		},
	)
	if concurrent != 1 {
		t.Error("second reader never ran")
	}
	if m.Waits != 0 {
		t.Errorf("Waits = %d; S behind S should not block", m.Waits)
	}
}

func TestExclusiveBlocksOlderWaits(t *testing.T) {
	m := NewManager(true)
	key := Key{Space: 1, ID: 7}
	var acquiredAt sim.Time
	run(t,
		// Owner 2 (younger) holds X first.
		func(p *sim.Proc, ctx *exec.Ctx) {
			if err := m.Acquire(ctx, 2, key, X); err != nil {
				t.Errorf("holder: %v", err)
			}
			p.Advance(500)
			m.ReleaseAll(ctx, 2)
		},
		// Owner 1 (older) requests: must WAIT (old waits for young), then win.
		func(p *sim.Proc, ctx *exec.Ctx) {
			p.Advance(10)
			if err := m.Acquire(ctx, 1, key, X); err != nil {
				t.Errorf("older requester died: %v", err)
			}
			acquiredAt = p.Now()
			m.ReleaseAll(ctx, 1)
		},
	)
	if acquiredAt < 500 {
		t.Errorf("older txn acquired at %v, want >= 500", acquiredAt)
	}
	if m.Waits != 1 {
		t.Errorf("Waits = %d, want 1", m.Waits)
	}
}

func TestYoungerRequesterDies(t *testing.T) {
	m := NewManager(true)
	key := Key{Space: 1, ID: 7}
	run(t,
		func(p *sim.Proc, ctx *exec.Ctx) {
			if err := m.Acquire(ctx, 1, key, X); err != nil { // older holder
				t.Errorf("holder: %v", err)
			}
			p.Advance(500)
			m.ReleaseAll(ctx, 1)
		},
		func(p *sim.Proc, ctx *exec.Ctx) {
			p.Advance(10)
			err := m.Acquire(ctx, 2, key, X) // younger: must die, not wait
			if err != ErrDie {
				t.Errorf("younger got %v, want ErrDie", err)
			}
			if p.Now() > 400 {
				t.Error("die should be immediate, not a wait for the holder")
			}
		},
	)
	if m.Dies != 1 {
		t.Errorf("Dies = %d, want 1", m.Dies)
	}
}

func TestReacquireHeldLockIsFree(t *testing.T) {
	m := NewManager(true)
	key := Key{Space: 1, ID: 7}
	run(t, func(p *sim.Proc, ctx *exec.Ctx) {
		if err := m.Acquire(ctx, 1, key, X); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(ctx, 1, key, S); err != nil { // covered by X
			t.Fatal(err)
		}
		if err := m.Acquire(ctx, 1, key, X); err != nil {
			t.Fatal(err)
		}
		if m.Held(1) != 1 {
			t.Errorf("Held = %d, want 1", m.Held(1))
		}
		m.ReleaseAll(ctx, 1)
		if m.Held(1) != 0 {
			t.Error("locks leaked after ReleaseAll")
		}
	})
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := NewManager(true)
	key := Key{Space: 1, ID: 7}
	run(t, func(p *sim.Proc, ctx *exec.Ctx) {
		if err := m.Acquire(ctx, 1, key, S); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(ctx, 1, key, X); err != nil {
			t.Fatalf("sole-holder upgrade failed: %v", err)
		}
		if m.HeldMode(1, key) != X {
			t.Errorf("mode = %v, want X", m.HeldMode(1, key))
		}
		m.ReleaseAll(ctx, 1)
	})
}

func TestUpgradeRace(t *testing.T) {
	// Two S holders both upgrade: the younger dies, the older waits and wins.
	m := NewManager(true)
	key := Key{Space: 1, ID: 7}
	var olderGot sim.Time
	run(t,
		func(p *sim.Proc, ctx *exec.Ctx) { // older
			if err := m.Acquire(ctx, 1, key, S); err != nil {
				t.Fatal(err)
			}
			p.Advance(10)
			if err := m.Acquire(ctx, 1, key, X); err != nil {
				t.Errorf("older upgrade: %v", err)
			}
			olderGot = p.Now()
			m.ReleaseAll(ctx, 1)
		},
		func(p *sim.Proc, ctx *exec.Ctx) { // younger
			if err := m.Acquire(ctx, 2, key, S); err != nil {
				t.Fatal(err)
			}
			p.Advance(20)
			if err := m.Acquire(ctx, 2, key, X); err != ErrDie {
				t.Errorf("younger upgrade got %v, want ErrDie", err)
			}
			m.ReleaseAll(ctx, 2) // abort path
		},
	)
	if olderGot == 0 {
		t.Error("older upgrader never succeeded")
	}
}

func TestIntentLocksAllowRowDisjointness(t *testing.T) {
	m := NewManager(true)
	table := Key{Space: 1, ID: TableLock}
	run(t,
		func(p *sim.Proc, ctx *exec.Ctx) {
			if err := m.Acquire(ctx, 1, table, IX); err != nil {
				t.Fatal(err)
			}
			if err := m.Acquire(ctx, 1, Key{Space: 1, ID: 10}, X); err != nil {
				t.Fatal(err)
			}
			p.Advance(100)
			m.ReleaseAll(ctx, 1)
		},
		func(p *sim.Proc, ctx *exec.Ctx) {
			p.Advance(5)
			// Different row: IX+IX compatible, no wait.
			if err := m.Acquire(ctx, 2, table, IX); err != nil {
				t.Fatal(err)
			}
			if err := m.Acquire(ctx, 2, Key{Space: 1, ID: 11}, X); err != nil {
				t.Fatal(err)
			}
			if m.Waits != 0 {
				t.Error("disjoint rows blocked each other")
			}
			m.ReleaseAll(ctx, 2)
		},
	)
}

func TestDisabledManagerIsFree(t *testing.T) {
	m := NewManager(false)
	run(t, func(p *sim.Proc, ctx *exec.Ctx) {
		t0 := p.Now()
		if err := m.Acquire(ctx, 1, Key{Space: 1, ID: 1}, X); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(ctx, 1)
		if p.Now() != t0 {
			t.Error("disabled manager consumed time")
		}
		if m.Acquires != 0 {
			t.Error("disabled manager counted acquires")
		}
	})
}

func TestFIFOGrantAfterRelease(t *testing.T) {
	// Holder releases; two waiters (both older than holder... impossible) —
	// instead: holder is youngest; waiters arrive in order 2 then 1 (1 is
	// oldest). Queue check: both wait (each older than everyone present).
	m := NewManager(true)
	key := Key{Space: 1, ID: 9}
	var order []uint64
	run(t,
		func(p *sim.Proc, ctx *exec.Ctx) { // owner 5, youngest, holds first
			if err := m.Acquire(ctx, 5, key, X); err != nil {
				t.Fatal(err)
			}
			p.Advance(100)
			m.ReleaseAll(ctx, 5)
		},
		func(p *sim.Proc, ctx *exec.Ctx) { // owner 2 arrives at t=10
			p.Advance(10)
			if err := m.Acquire(ctx, 2, key, X); err != nil {
				t.Fatal(err)
			}
			order = append(order, 2)
			p.Advance(10)
			m.ReleaseAll(ctx, 2)
		},
		func(p *sim.Proc, ctx *exec.Ctx) { // owner 1 arrives at t=20
			p.Advance(20)
			if err := m.Acquire(ctx, 1, key, X); err != nil {
				t.Fatal(err)
			}
			order = append(order, 1)
			m.ReleaseAll(ctx, 1)
		},
	)
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("grant order = %v, want [2 1] (FIFO)", order)
	}
}

func TestWaitTimeAccounting(t *testing.T) {
	m := NewManager(true)
	key := Key{Space: 1, ID: 1}
	run(t,
		func(p *sim.Proc, ctx *exec.Ctx) {
			m.Acquire(ctx, 9, key, X)
			p.Advance(300)
			m.ReleaseAll(ctx, 9)
		},
		func(p *sim.Proc, ctx *exec.Ctx) {
			p.Advance(10)
			if err := m.Acquire(ctx, 1, key, X); err != nil {
				t.Fatal(err)
			}
			if ctx.BD[exec.BLock] < 250 {
				t.Errorf("BLock = %v, want ~290", ctx.BD[exec.BLock])
			}
			m.ReleaseAll(ctx, 1)
		},
	)
	if m.WaitTime < 250 {
		t.Errorf("WaitTime = %v", m.WaitTime)
	}
}

// TestSteadyStateAcquireReleaseAllocatesNothing guards the free lists:
// ReleaseAll deletes every head the transaction emptied, so each Acquire of
// the next transaction creates its head anew — from recycled heads, grant
// arrays and held set. A second round adds a partner holding what the
// transaction wants, so it parks twice — once queued at the back, once as an
// upgrade at the front — on recycled wait requests and waiter arrays.
func TestSteadyStateAcquireReleaseAllocatesNothing(t *testing.T) {
	m := NewManager(true)
	const cycle = 10000 // virtual ns per conflict round; both threads re-align on it
	hot, shared := Key{Space: 2, ID: 1}, Key{Space: 2, ID: 2}
	stop := false
	run(t,
		func(p *sim.Proc, ctx *exec.Ctx) {
			owner := uint64(0) // always older than the partner: waits, never dies
			txn := func() {
				owner++
				for i := int64(0); i < 10; i++ {
					if err := m.Acquire(ctx, owner, Key{Space: 1, ID: i}, X); err != nil {
						t.Fatalf("acquire: %v", err)
					}
				}
				m.ReleaseAll(ctx, owner)
			}
			txn() // warm the free lists and the bucket maps
			if allocs := testing.AllocsPerRun(100, txn); allocs != 0 {
				t.Errorf("10 x Acquire + ReleaseAll allocates %v objects per transaction, want 0", allocs)
			}

			conflict := func() {
				owner++
				p.Advance(cycle/4 - p.Now()%cycle) // the partner took its locks at the cycle's start
				for _, step := range []struct {
					key  Key
					mode Mode
				}{{shared, S}, {hot, X}, {shared, X}} {
					if err := m.Acquire(ctx, owner, step.key, step.mode); err != nil {
						t.Fatalf("acquire %v %v: %v", step.key, step.mode, err)
					}
				}
				m.ReleaseAll(ctx, owner)
				p.Advance(cycle - p.Now()%cycle)
			}
			p.Advance(cycle - p.Now()%cycle)
			conflict() // warm: first wait requests, waiter arrays
			conflict()
			waits := m.Waits
			const rounds = 50
			if allocs := testing.AllocsPerRun(rounds, conflict); allocs != 0 {
				t.Errorf("a transaction that waits twice allocates %v objects, want 0", allocs)
			}
			// AllocsPerRun runs one warm-up call besides the counted ones.
			if got := m.Waits - waits; got != 2*(rounds+1) || m.Dies != 0 {
				t.Errorf("%d waits and %d dies over %d rounds; every round must wait twice", got, m.Dies, rounds+1)
			}
			stop = true
		},
		func(p *sim.Proc, ctx *exec.Ctx) {
			// The partner: from the start of each cycle it holds hot in X, to
			// the middle, and shared in S, to the three-quarter mark, as two
			// transactions younger than any of the first thread's. hot makes
			// that thread queue at the back; shared, which it holds in S
			// itself by then, makes its upgrade to X queue at the front.
			owner := uint64(1) << 40
			for !stop {
				owner += 2
				p.Advance(cycle - p.Now()%cycle)
				if m.Acquire(ctx, owner, hot, X) != nil || m.Acquire(ctx, owner+1, shared, S) != nil {
					t.Error("partner could not take its locks")
					return
				}
				p.Advance(cycle / 2)
				m.ReleaseAll(ctx, owner)
				p.Advance(cycle / 4)
				m.ReleaseAll(ctx, owner+1)
			}
		},
	)
}

// TestSharedKeyOnRecycledHeadsAllocatesNothing: three transactions
// share-lock one key and X-lock twenty private keys each, then release, so
// each round the shared key lands on the recycled head that last served a
// private key, and its three holders outgrow the two grants inline in a head.
// After the first round, which grows the manager's lists, no round may
// allocate: the grant array a freed head grew goes back to the manager for
// the next head that needs one. Heads that kept their own grown arrays made
// each of the 41 heads in rotation allocate once.
func TestSharedKeyOnRecycledHeadsAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // count this test's allocations alone
	const holders, private = 3, 20
	m := NewManager(true)
	shared := Key{Space: 1, ID: 0}
	run(t, func(p *sim.Proc, ctx *exec.Ctx) {
		owner := uint64(0)
		round := func() {
			for h := range holders {
				o := owner + uint64(h)
				if err := m.Acquire(ctx, o, shared, S); err != nil {
					t.Fatal(err)
				}
				for j := range private {
					if err := m.Acquire(ctx, o, Key{Space: 1, ID: int64(1 + h*private + j)}, X); err != nil {
						t.Fatal(err)
					}
				}
			}
			if h := m.bucketOf(shared).find(shared); len(h.granted) != holders {
				t.Fatalf("shared key has %d grants, want %d", len(h.granted), holders)
			}
			for h := range holders {
				m.ReleaseAll(ctx, owner+uint64(h))
			}
			owner += holders
		}
		round()
		const rounds = 2 * holders * private
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range rounds {
			round()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%d rounds allocated %d objects, want 0", rounds, n)
		}
	})
}

// TestFullListGrowsToHighWaterAtOnce: once one transaction has held two
// hundred locks, one that takes a hundred on a fresh owner slot grows its held
// set once, straight to the manager's high-water for held sets (256), not by
// doubling from empty (which stops at 128).
func TestFullListGrowsToHighWaterAtOnce(t *testing.T) {
	const locks = 100
	m := NewManager(true)
	run(t, func(p *sim.Proc, ctx *exec.Ctx) {
		take := func(owner uint64, base, n int64) {
			for i := range n {
				if err := m.Acquire(ctx, owner, Key{Space: 1, ID: base + i}, X); err != nil {
					t.Fatal(err)
				}
			}
		}
		take(1, 0, 2*locks)
		hw := cap(m.heldBy(1).heads)
		m.ReleaseAll(ctx, 1)
		take(2, 0, locks)     // reuses owner 1's slot and its held set
		take(3, locks, locks) // a fresh slot
		if got := cap(m.heldBy(3).heads); got != hw || hw < 2*locks {
			t.Errorf("a fresh owner's held set of %d locks has capacity %d, want the high-water %d", locks, got, hw)
		}
		m.ReleaseAll(ctx, 2)
		m.ReleaseAll(ctx, 3)
	})
}
