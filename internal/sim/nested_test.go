package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// nestRun is everything one run of nestScript exposes.
type nestRun struct {
	traces [][]string // per partition, in execution order
	events uint64
	clocks []Time // every partition's final clock
	live   int
	nested uint64 // procs resumed by a loop owner, summed over partitions
	fast   string // the first break of a partition's fast-path limit
}

// nestScript runs a seeded random script with procs[i] procs on partition i
// of a len(procs)-partition matrix kernel, driven by Run, by Step alone, or
// by Run on two workers. Every proc takes small Advances — ties included —
// locks its partition's Mutex around one, pushes to and blocks popping from
// its partition's Queue (or sends to another partition's), parks on a gate
// that procs and After callbacks Unpark, schedules callbacks, and may exit
// early. Each partition keeps its own trace, so two workers never share one.
// After every proc step, callback and Step, the partition's cached fast-path
// limit is checked against its definition.
func nestScript(seed int64, procs []int, drive string) nestRun {
	n := len(procs)
	la := make([][]Time, n)
	for i := range la {
		la[i] = make([]Time, n)
		for j := range la[i] {
			if i != j {
				la[i][j] = Time(60 + 20*((i+2*j)%3))
			}
		}
	}
	k := NewShardedMatrix(la)
	defer k.Close()
	if drive == "workers" {
		k.SetWorkers(2)
	}
	doms := make([]*Domain, n)
	queues := make([]*Queue[int], n)
	mus := make([]Mutex, n)
	gates := make([][]*Proc, n)
	traces := make([][]string, n)
	var w fastWatch
	for i := range doms {
		doms[i] = k.NewDomain(i)
		queues[i] = NewQueueIn[int](doms[i])
	}
	poke := func(i int) {
		if len(gates[i]) > 0 {
			w := gates[i][0]
			gates[i] = gates[i][1:]
			w.Unpark()
		}
	}
	for i, count := range procs {
		d := doms[i]
		for j := 0; j < count; j++ {
			rng := rand.New(rand.NewSource(seed*1009 + int64(10*i+j)))
			name := fmt.Sprintf("p%d.%d", i, j)
			d.Spawn(name, func(p *Proc) {
				note := func(what string) {
					traces[i] = append(traces[i], fmt.Sprintf("%s %s @%d", name, what, p.Now()))
					w.check(d.sh)
				}
				for s := 0; s < 30; s++ {
					switch rng.Intn(9) {
					case 0, 1, 2:
						p.Advance(Time(rng.Intn(6)))
						note("advanced")
					case 3:
						mus[i].Lock(p)
						note("locked")
						p.Advance(Time(rng.Intn(4)))
						mus[i].Unlock(p)
					case 4:
						if to := rng.Intn(n); to != i {
							queues[to].PushAfterFrom(d, la[i][to]+Time(rng.Intn(30)), s)
							note(fmt.Sprintf("sent to %d", to))
						} else {
							queues[i].Push(s)
							note("pushed")
						}
					case 5:
						note(fmt.Sprintf("popped %d", queues[i].Pop(p)))
					case 6:
						gates[i] = append(gates[i], p)
						p.Park()
						note("unparked")
					case 7:
						poke(i)
						d.After(Time(rng.Intn(5)), func() {
							traces[i] = append(traces[i], fmt.Sprintf("after from %s @%d", name, d.Now()))
							poke(i)
							w.check(d.sh)
						})
					case 8:
						if rng.Intn(4) == 0 {
							note("exits")
							return
						}
					}
				}
				note("done")
			})
		}
	}
	if drive == "step" {
		for k.Step() {
			w.checkAll(k)
		}
	} else {
		k.Run()
	}
	w.checkAll(k)
	r := nestRun{traces: traces, events: k.Events(), live: k.LiveProcs(), fast: w.first}
	for _, sh := range k.shards {
		r.clocks = append(r.clocks, sh.now)
		r.nested += sh.nested
	}
	return r
}

// TestNestedDispatchChangesNothing: a parked proc that runs its partition's
// loop — resuming other procs nested, popping callbacks inline — must
// execute exactly what the kernel's own loop would. Random scripts of 2–8
// procs on one partition, and of 1–3 per partition on a three-partition
// matrix kernel, give byte-identical traces, Events(), final clocks and live
// procs under Run, Step alone (which never nests) and two workers, and Run
// does nest; one proc per partition, the fine_local_read shape, never does.
// Every partition's cached fast-path limit holds after every event of all
// three.
func TestNestedDispatchChangesNothing(t *testing.T) {
	var nested uint64
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shapes := [][]int{{2 + rng.Intn(7)}, {1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}, {1, 1, 1}}
		for _, procs := range shapes {
			ref := nestScript(seed, procs, "run")
			if ref.fast != "" {
				t.Fatalf("seed %d, procs %v, run: %s", seed, procs, ref.fast)
			}
			for _, drive := range []string{"step", "workers"} {
				got, want := nestScript(seed, procs, drive), ref
				got.nested, want.nested = 0, 0 // only Run's count is asserted
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, procs %v: %s diverges from Run:\n got %+v\nwant %+v", seed, procs, drive, got, want)
				}
			}
			single := true
			for _, c := range procs {
				single = single && c == 1
			}
			if single && ref.nested != 0 {
				t.Errorf("seed %d: one proc per partition, yet %d nested resumes", seed, ref.nested)
			}
			nested += ref.nested
		}
	}
	if nested == 0 {
		t.Error("no script ever resumed a proc nested: the property test exercises nothing")
	}
}

// TestNestedProcPanicUnwindsOwner: a proc resumed nested by a loop owner
// panics. The panic reaches Run with its own value, unwinding the owner on
// its way; the shard is left unowned, and Close still unwinds every parked
// proc.
func TestNestedProcPanicUnwindsOwner(t *testing.T) {
	k := NewKernel()
	var mu Mutex
	k.Spawn("owner", func(p *Proc) {
		mu.Lock(p)
		for {
			p.Advance(10) // the other procs' starts are due first: p becomes the loop
		}
	})
	k.Spawn("parked", func(p *Proc) { mu.Lock(p) })
	k.Spawn("bomb", func(p *Proc) {
		p.Advance(5)
		panic("nested boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "nested boom" {
				t.Errorf("recovered %v, want nested boom", r)
			}
		}()
		k.Run()
		t.Error("Run returned without panicking")
	}()
	sh := k.shards[0]
	if sh.nested == 0 {
		t.Error("the bomb was not resumed nested")
	}
	if sh.owner != nil || sh.handoff != nil {
		t.Errorf("after the panic owner = %v, handoff = %v; want both nil", sh.owner, sh.handoff)
	}
	k.Close()
	if live := k.LiveProcs(); live != 0 {
		t.Errorf("LiveProcs after Close = %d, want 0", live)
	}
}
