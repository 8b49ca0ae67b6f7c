package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// fastWatch checks the cached fast-path limit of a shard against its
// definition, fast == min(horizon, heap top's at - 1), wherever a script
// calls check, and keeps the first violation. Procs on several workers may
// check their own shards at once.
type fastWatch struct {
	mu     sync.Mutex
	checks int
	first  string
}

func (w *fastWatch) check(sh *shard) {
	want := sh.horizon
	if len(sh.heap.ev) > 0 && sh.heap.ev[0].at-1 < want {
		want = sh.heap.ev[0].at - 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checks++
	if sh.fast != want && w.first == "" {
		w.first = fmt.Sprintf("shard %d at %d: fast = %d, want min(horizon %d, top - 1) = %d (heap %d)",
			sh.id, sh.now, sh.fast, sh.horizon, want, len(sh.heap.ev))
	}
}

// checkAll checks every shard; only while no window is running.
func (w *fastWatch) checkAll(k *Kernel) {
	for _, sh := range k.shards {
		w.check(sh)
	}
}

// verdict fails t with the first violation, or if nothing was checked.
func (w *fastWatch) verdict(t *testing.T, what string) {
	t.Helper()
	if w.first != "" {
		t.Fatalf("%s: %s", what, w.first)
	}
	if w.checks == 0 {
		t.Fatalf("%s: the fast-path limit was never checked", what)
	}
}

// TestTryAdvanceTieTakesGeneralPath: a Proc whose target is exactly another
// event's timestamp must not take the one-compare path, whichever domain
// that event belongs to, because the (dom, seq) tie-break decides who runs
// first. TryAdvance refuses without touching the clock, the sequence or the
// event count, and Advance then orders exactly by the key: a callback or a
// Proc wake of a lower domain (or of the same domain, scheduled earlier)
// runs before the advancing Proc, one of a higher domain after it. Driving
// the same script by Step alone gives the same order.
func TestTryAdvanceTieTakesGeneralPath(t *testing.T) {
	for _, other := range []string{"callback", "proc"} {
		for _, rel := range []string{"lower", "same", "higher"} {
			want := []string{"other @10", "mover @10"}
			if rel == "higher" {
				want = []string{"mover @10", "other @10"}
			}
			for _, drive := range []string{"run", "step"} {
				what := fmt.Sprintf("%s of the %s domain, %s", other, rel, drive)
				var w fastWatch
				k := NewKernel()
				lo := k.NewDomain(0)
				mid := k.NewDomain(0)
				hi := k.NewDomain(0)
				od := map[string]*Domain{"lower": lo, "same": mid, "higher": hi}[rel]
				var order []string
				switch other {
				case "callback":
					od.After(10, func() { order = append(order, fmt.Sprintf("other @%d", od.Now())) })
				case "proc":
					od.SpawnAt(10, "other", func(p *Proc) { order = append(order, fmt.Sprintf("other @%d", p.Now())) })
				}
				mid.Spawn("mover", func(p *Proc) {
					sh := p.dom.sh
					w.check(sh)
					if drive == "step" {
						p.Advance(9) // Step pins the horizon: nothing is inline
					} else if !p.TryAdvance(9) {
						t.Errorf("%s: TryAdvance(9) refused with the other event due at 10", what)
					}
					w.check(sh)
					now, seq, events := sh.now, p.dom.seq, sh.nEvents
					if p.TryAdvance(1) {
						t.Errorf("%s: TryAdvance(1) took the fast path onto a tie at 10", what)
					}
					if sh.now != now || p.dom.seq != seq || sh.nEvents != events {
						t.Errorf("%s: a refused TryAdvance changed now %d->%d, seq %d->%d, events %d->%d",
							what, now, sh.now, seq, p.dom.seq, events, sh.nEvents)
					}
					if p.TryAdvance(-1) {
						t.Errorf("%s: TryAdvance(-1) took the fast path", what)
					}
					p.Advance(1)
					w.check(sh)
					order = append(order, fmt.Sprintf("mover @%d", p.Now()))
				})
				if drive == "step" {
					for k.Step() {
						w.checkAll(k)
					}
				} else {
					k.Run()
				}
				w.checkAll(k)
				k.Close()
				if !reflect.DeepEqual(order, want) {
					t.Errorf("%s: order %v, want %v", what, order, want)
				}
				w.verdict(t, what)
			}
		}
	}
}

// TestFastLimitFollowsHorizonAndClose: RunUntil's windows, Step's pinned
// horizon and Close each keep the cached limit equal to its definition, and
// a Proc bumps its clock inline up to the RunUntil bound and no further.
func TestFastLimitFollowsHorizonAndClose(t *testing.T) {
	var w fastWatch
	k := NewKernel()
	w.checkAll(k)
	var inline int
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			w.check(p.dom.sh)
			if p.TryAdvance(7) {
				inline++
			} else {
				p.Advance(7)
			}
		}
	})
	k.After(30, func() { w.check(k.shards[0]) })
	k.computeWindow(25) // a window's horizon, before any event pops
	w.checkAll(k)
	k.Step()
	w.checkAll(k)
	for _, until := range []Time{20, 41, 100} {
		k.RunUntil(until)
		w.checkAll(k)
	}
	if inline == 0 || inline == 10 {
		t.Errorf("%d of 10 advances were inline; want some on each path (the horizon and the callback cut the rest)", inline)
	}
	k.Close()
	w.checkAll(k)
	w.verdict(t, "RunUntil")
}
