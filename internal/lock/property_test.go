package lock

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// holderState mirrors one key's expected holder set, maintained by the test
// alongside the manager's own bookkeeping.
type holderState struct {
	current map[uint64]Mode
}

// TestTwoPhaseLockingSafetyProperty throws random transaction schedules at
// the manager and checks, in virtual time, that no two transactions ever
// hold conflicting modes on the same key simultaneously, and that every
// schedule terminates (wait-die admits no deadlock).
func TestTwoPhaseLockingSafetyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		k := sim.NewKernel()
		defer k.Close()
		model := mem.NewModel(topology.QuadSocket())
		m := NewManager(true)

		const keys = 4
		states := make([]holderState, keys)
		for i := range states {
			states[i].current = make(map[uint64]Mode)
		}
		violated := false

		const txns = 12
		for i := 0; i < txns; i++ {
			owner := uint64(i + 1)
			rng := rand.New(rand.NewSource(seed + int64(i)*7))
			k.Spawn(fmt.Sprintf("t%d", owner), func(p *sim.Proc) {
				ctx := exec.New(p, topology.CoreID(int(owner)%24), model, nil)
				for attempt := 0; attempt < 50; attempt++ {
					held := make([]int, 0, 3)
					aborted := false
					n := 1 + rng.Intn(3)
					for j := 0; j < n; j++ {
						key := rng.Intn(keys)
						mode := S
						if rng.Intn(2) == 0 {
							mode = X
						}
						if err := m.Acquire(ctx, owner, Key{Space: 1, ID: int64(key)}, mode); err != nil {
							aborted = true
							break
						}
						// Record and validate the grant table.
						st := &states[key]
						prev := st.current[owner]
						st.current[owner] = maxMode(prev, mode)
						if !validate(st) {
							violated = true
						}
						held = append(held, key)
						p.Advance(sim.Time(rng.Intn(200)))
					}
					for _, key := range held {
						delete(states[key].current, owner)
					}
					m.ReleaseAll(ctx, owner)
					if !aborted {
						return
					}
					p.Advance(sim.Time(rng.Intn(100)))
				}
			})
		}
		k.Run()
		if violated {
			return false
		}
		// Termination: every proc finished (no one parked forever).
		return k.LiveProcs() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// lockTable is what the differential test drives: Manager and refManager.
type lockTable interface {
	Acquire(ctx *exec.Ctx, owner uint64, key Key, mode Mode) error
	ReleaseAll(ctx *exec.Ctx, owner uint64)
	Condemn()
	Held(owner uint64) int
	HeldMode(owner uint64, key Key) Mode
}

// collidingKeys returns n row keys of table 1 that share one bucket, so the
// scripts link, find and unlink heads in the middle of a chain.
func collidingKeys(n int) []Key {
	m := NewManager(true)
	want := m.bucketOf(Key{Space: 1, ID: 0})
	keys := []Key{{Space: 1, ID: 0}}
	for id := int64(1); len(keys) < n; id++ {
		if k := (Key{Space: 1, ID: id}); m.bucketOf(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

// lockScript runs one seeded random schedule against lt and returns its
// transcript: each call's thread, owner, key and mode, the virtual times it
// began and returned (a wait shows as a gap; the transcript's order is the
// wake order), its outcome, and the owner's Held and HeldMode right after;
// then the stats, each thread's lock time, and the kernel's clock, event
// count and live procs. Threads run transactions of 1–5 acquires in random
// modes — repeats upgrade — over a table lock, rows sharing one bucket and
// one row elsewhere, and retry a transaction that died under its old owner
// id; on some seeds two threads share each owner id, as two attempts of one
// transaction can on a participant. A reaper releases random owners
// mid-flight, as a stale 2PC abort does, and some seeds condemn the table
// part way through.
func lockScript(seed int64, lt lockTable, stats func() string) []string {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	rng := rand.New(rand.NewSource(seed))
	keys := append([]Key{{Space: 1, ID: TableLock}, {Space: 2, ID: 7}}, collidingKeys(3)...)
	modes := []Mode{IS, IX, S, X}
	threads := 2 + rng.Intn(5)
	pair := 1 + rng.Intn(2) // 2: threads 2j and 2j+1 share each owner id
	var log []string
	ctxs := make([]*exec.Ctx, threads+1)
	call := func(i int, owner uint64, key Key, mode Mode) error {
		ctx := ctxs[i]
		t0 := ctx.P.Now()
		err := lt.Acquire(ctx, owner, key, mode)
		log = append(log, fmt.Sprintf("t%d o%d %v %v [%d,%d] %v held=%d mode=%v",
			i, owner, key, mode, t0, ctx.P.Now(), err, lt.Held(owner), lt.HeldMode(owner, key)))
		return err
	}
	for i := 0; i < threads; i++ {
		i := i
		trng := rand.New(rand.NewSource(seed*131 + int64(i)))
		k.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			ctxs[i] = ctxFor(p, model)
			for txn := 0; txn < 4; txn++ {
				owner := uint64(1 + i/pair + threads*txn)
				for attempt := 0; attempt < 5; attempt++ {
					died := false
					for n := 1 + trng.Intn(5); n > 0 && !died; n-- {
						died = call(i, owner, keys[trng.Intn(len(keys))], modes[trng.Intn(len(modes))]) != nil
						p.Advance(sim.Time(trng.Intn(80)))
					}
					lt.ReleaseAll(ctxs[i], owner)
					log = append(log, fmt.Sprintf("t%d o%d released @%d", i, owner, p.Now()))
					if !died {
						break
					}
					p.Advance(sim.Time(trng.Intn(40)))
				}
			}
		})
	}
	k.Spawn("reaper", func(p *sim.Proc) {
		ctxs[threads] = ctxFor(p, model)
		for n := 0; n < 6; n++ {
			p.Advance(sim.Time(50 + rng.Intn(300)))
			owner := uint64(1 + rng.Intn(threads*4))
			held := lt.Held(owner)
			lt.ReleaseAll(ctxs[threads], owner)
			log = append(log, fmt.Sprintf("reaper o%d held=%d @%d", owner, held, p.Now()))
		}
	})
	if rng.Intn(3) == 0 {
		k.After(sim.Time(rng.Intn(1500)), func() {
			lt.Condemn()
			log = append(log, fmt.Sprintf("condemned @%d", k.Now()))
		})
	}
	k.Run()
	for i, ctx := range ctxs {
		log = append(log, fmt.Sprintf("t%d lock time %d", i, ctx.BD[exec.BLock]))
	}
	return append(log, stats(), fmt.Sprintf("now=%d events=%d live=%d", k.Now(), k.Events(), k.LiveProcs()))
}

// windowScript is the schedule the random ones almost never hit: at the
// instant a release grants two waiters — owner 3 a fresh X, owner 4 an
// upgrade S to X — a second thread of each owner acquires the key before the
// waiter resumes, behind an older waiter the grant left queued. The held-set
// mode says the twin does not hold what it asks for, so it dies; the
// provisional grant would have said it does.
func windowScript(seed int64, lt lockTable, stats func() string) []string {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	k1, k2 := Key{Space: 1, ID: 1}, Key{Space: 1, ID: 2}
	var log []string
	var release sim.Time
	acquire := func(ctx *exec.Ctx, who string, owner uint64, key Key, mode Mode) {
		err := lt.Acquire(ctx, owner, key, mode)
		log = append(log, fmt.Sprintf("%s o%d %v %v @%d %v held=%d mode=%v",
			who, owner, key, mode, ctx.P.Now(), err, lt.Held(owner), lt.HeldMode(owner, key)))
	}
	k.Spawn("holder", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		acquire(ctx, "holder", 9, k1, X)
		acquire(ctx, "holder", 9, k2, S)
		release = p.Now() + 1000
		p.Advance(1000)
		lt.ReleaseAll(ctx, 9)
	})
	for _, w := range []struct {
		owner uint64
		key   Key
		steps []Mode // the waiter's requests; the last one waits
		older uint64 // queues behind the waiter for X
		twin  Mode
	}{{3, k1, []Mode{X}, 1, S}, {4, k2, []Mode{S, X}, 2, X}} {
		k.Spawn("waiter", func(p *sim.Proc) {
			ctx := ctxFor(p, model)
			p.Advance(10)
			for _, mode := range w.steps {
				acquire(ctx, "waiter", w.owner, w.key, mode)
			}
			p.Advance(1000)
			lt.ReleaseAll(ctx, w.owner)
		})
		k.Spawn("older", func(p *sim.Proc) {
			ctx := ctxFor(p, model)
			p.Advance(400)
			acquire(ctx, "older", w.older, w.key, X)
			lt.ReleaseAll(ctx, w.older)
		})
		k.Spawn("twin", func(p *sim.Proc) {
			ctx := ctxFor(p, model)
			p.Advance(500) // past the holder's acquires, so its wake at release runs first
			p.Advance(release - p.Now())
			acquire(ctx, "twin", w.owner, w.key, w.twin)
		})
	}
	k.Run()
	return append(log, stats(), fmt.Sprintf("now=%d events=%d live=%d", k.Now(), k.Events(), k.LiveProcs()))
}

// TestManagerMatchesReference drives the chained lock table and the map-based
// reference it replaced through the same schedules — windowScript, then
// random ones: every outcome, wake order, held set, stat and charged virtual
// time must match.
func TestManagerMatchesReference(t *testing.T) {
	waits, dies := uint64(0), uint64(0)
	for seed := int64(-1); seed < 300; seed++ {
		script := lockScript
		if seed < 0 {
			script = windowScript
		}
		m, ref := NewManager(true), newRefManager(true)
		got := script(seed, m, func() string {
			return fmt.Sprintf("acquires=%d waits=%d dies=%d wait=%d", m.Acquires, m.Waits, m.Dies, m.WaitTime)
		})
		want := script(seed, ref, func() string {
			return fmt.Sprintf("acquires=%d waits=%d dies=%d wait=%d", ref.Acquires, ref.Waits, ref.Dies, ref.WaitTime)
		})
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: transcripts diverge at line %d:\n got %s\nwant %s", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: transcript lengths %d, want %d", seed, len(got), len(want))
		}
		waits, dies = waits+m.Waits, dies+m.Dies
	}
	if waits == 0 || dies == 0 {
		t.Errorf("schedules waited %d and died %d times; the comparison needs both", waits, dies)
	}
}

// TestNewManagerAllocatesOnce pins that a lock table is one object: no
// per-bucket maps to build for every instance a deployment creates.
func TestNewManagerAllocatesOnce(t *testing.T) {
	var m *Manager
	if n := testing.AllocsPerRun(20, func() { m = NewManager(true) }); n != 1 || m == nil {
		t.Errorf("NewManager allocates %v objects, want 1", n)
	}
}

func maxMode(a, b Mode) Mode {
	if a == None {
		return b
	}
	if covers(a, b) {
		return a
	}
	if covers(b, a) {
		return b
	}
	return X
}

// validate checks the compatibility invariant of one key's current holders.
func validate(st *holderState) bool {
	xHolders, sHolders := 0, 0
	for _, m := range st.current {
		switch m {
		case X:
			xHolders++
		case S:
			sHolders++
		}
	}
	if xHolders > 1 {
		return false
	}
	if xHolders == 1 && sHolders > 0 {
		return false
	}
	return true
}
