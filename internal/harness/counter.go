package harness

import (
	"fmt"
	"math"
	"math/rand"

	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// counterBench reproduces the counter-increment microbenchmark of Section 3:
// groups of threads increment lock-protected counters in a tight loop. Each
// increment transfers the counter's cache line to the incrementing core, so
// throughput is governed by where the previous holder ran — the paper's
// motivating illustration of hardware islands.
//
// assign maps thread t (of n) to a core; counterOf maps thread t to its
// counter. Each thread performs iters increments; throughput is total
// increments divided by the time the last thread finishes (the benchmark is
// iteration-bounded so that the fast per-core setup does not explode the
// event count).
func counterBench(m *topology.Machine, n int, counters int,
	assign func(t int) topology.CoreID, counterOf func(t int) int,
	iters int) float64 {

	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(m)

	// loopCPU is the non-memory work of one iteration (increment, branch).
	const loopCPU = 4 * sim.Nanosecond

	locks := make([]*sim.Mutex, counters)
	lines := make([]*mem.Line, counters)
	for i := range locks {
		locks[i] = &sim.Mutex{}
		lines[i] = &mem.Line{}
	}
	for t := 0; t < n; t++ {
		core := assign(t)
		ctr := counterOf(t)
		rng := rand.New(rand.NewSource(int64(t)*911 + 1))
		k.Spawn(fmt.Sprintf("inc%d", t), func(p *sim.Proc) {
			mu, line := locks[ctr], lines[ctr]
			for i := 0; i < iters; i++ {
				// A little arrival jitter decorrelates the FIFO grant order
				// from core numbering, as cache-line arbitration does on
				// real hardware; otherwise neighbours hand off in core
				// order and cross-socket transfers are undercounted.
				p.Advance(sim.Time(rng.Intn(7)))
				if !mu.TryLock(p) {
					mu.Lock(p)
				}
				// Lock word and counter share the line: one transfer.
				d := model.Write(core, line)
				p.Advance(d + loopCPU)
				mu.Unlock(p)
			}
		})
	}
	k.Run()
	total := float64(n) * float64(iters)
	return total / k.Now().Seconds()
}

// fig2 compares spread / grouped / OS thread placement for the per-socket
// counter setup on the octo-socket machine (80 threads, 8 counters).
func studyFig2(opt Options) *Study {
	iters := 3000
	seeds := 5
	if opt.Quick {
		iters = 500
		seeds = 3
	}

	tab := NewTable("counter throughput", "million increments/s",
		"placement", []string{"spread", "grouped", "os"}, "", []string{"mean", "stddev"})
	p := &Study{
		ID: "fig2", Title: "Counter increments by thread placement", Ref: "Figure 2",
		Notes: []string{
			"grouped > os > spread, as in the paper; os varies across seeds",
		},
		Tables: []*Table{tab},
	}

	// fig2Cell builds one placement cell: place derives the thread->core
	// assignment from the cell's own freshly-built machine (and the cell's
	// seed-adjusted options), so cells close over nothing shared. One
	// counter per socket; thread t belongs to counter t/perGroup.
	fig2Cell := func(name string, place func(m *topology.Machine, perGroup int, o Options) func(t int) topology.CoreID) Cell {
		return ScalarCell(name, func(o Options) float64 {
			m := topology.OctoSocket()
			n, perGroup := m.NumCores(), m.NumCores()/m.SocketCount
			counterOf := func(t int) int { return t / perGroup }
			return counterBench(m, n, m.SocketCount, place(m, perGroup, o), counterOf, iters) / 1e6
		})
	}

	// Spread: thread t of group g runs on socket (t mod sockets).
	spread := fig2Cell("fig2/spread", func(m *topology.Machine, _ int, _ Options) func(int) topology.CoreID {
		return func(t int) topology.CoreID {
			s := t % m.SocketCount
			idx := (t / m.SocketCount) % m.CoresPerSocket
			return topology.CoreID(s*m.CoresPerSocket + idx)
		}
	})
	spread.Emits = []Emit{ValueEmit(0, 0, 0)}
	// Grouped: group g's threads all run on socket g (where its counter is).
	grouped := fig2Cell("fig2/grouped", func(m *topology.Machine, perGroup int, _ Options) func(int) topology.CoreID {
		return func(t int) topology.CoreID {
			g := t / perGroup
			return topology.CoreID(g*m.CoresPerSocket + t%perGroup)
		}
	})
	grouped.Emits = []Emit{ValueEmit(0, 1, 0)}
	p.Cells = append(p.Cells, spread, grouped)

	// OS: the scheduler keeps some threads near the memory they touch (they
	// started there and were not migrated) and scatters the rest; the mix
	// lands between spread and grouped with run-to-run variance, as the
	// paper's error bars show.
	osStart := len(p.Cells)
	for s := 0; s < seeds; s++ {
		p.Cells = append(p.Cells, fig2Cell(fmt.Sprintf("fig2/os/seed%d", s),
			func(m *topology.Machine, perGroup int, o Options) func(int) topology.CoreID {
				n := m.NumCores()
				rng := rand.New(rand.NewSource(o.Seed + int64(s)*7919))
				cores := make([]topology.CoreID, n)
				for t := range cores {
					if rng.Float64() < 0.5 {
						g := t / perGroup
						cores[t] = topology.CoreID(g*m.CoresPerSocket + rng.Intn(m.CoresPerSocket))
					} else {
						cores[t] = topology.CoreID(rng.Intn(n))
					}
				}
				return func(t int) topology.CoreID { return cores[t] }
			}))
	}
	p.Finalize = func(res *Result, metrics []Metrics) {
		var rates []float64
		for _, x := range metrics[osStart : osStart+seeds] {
			rates = append(rates, x.Value)
		}
		mean, std := meanStd(rates)
		res.Tables[0].Set(2, 0, mean)
		res.Tables[0].Set(2, 1, std)
	}
	return p
}

// table1 scales the counter setup: one global counter, one per socket, one
// per core (Table 1 of the paper: 18.5x and 516.8x speedups).
func studyTable1(opt Options) *Study {
	iters := 3000
	if opt.Quick {
		iters = 500
	}

	tab := NewTable("counter scaling", "", "setup",
		[]string{"single", "per-socket", "per-core"}, "",
		[]string{"counters", "Mops/s", "speedup"})
	p := &Study{
		ID: "table1", Title: "Counter throughput when increasing counters", Ref: "Table 1",
		Notes: []string{
			"paper reports 18.5x (per-socket) and 516.8x (per-core) over a single counter",
		},
		Tables: []*Table{tab},
	}
	// The counter-count column is structural, not measured.
	geom := topology.OctoSocket()
	tab.Set(0, 0, 1)
	tab.Set(1, 0, float64(geom.SocketCount))
	tab.Set(2, 0, float64(geom.NumCores()))

	// Thread t runs on core t in every setup; the setups differ only in how
	// many counters the threads share.
	bench := func(counters func(m *topology.Machine) int, counterOf func(m *topology.Machine, t int) int) func(Options) float64 {
		return func(Options) float64 {
			m := topology.OctoSocket()
			grouped := func(t int) topology.CoreID { return topology.CoreID(t) }
			return counterBench(m, m.NumCores(), counters(m),
				grouped, func(t int) int { return counterOf(m, t) }, iters)
		}
	}
	p.Cells = append(p.Cells,
		ScalarCell("table1/single", bench(
			func(*topology.Machine) int { return 1 },
			func(*topology.Machine, int) int { return 0 })),
		ScalarCell("table1/per-socket", bench(
			func(m *topology.Machine) int { return m.SocketCount },
			func(m *topology.Machine, t int) int { return int(m.SocketOf(topology.CoreID(t))) })),
		ScalarCell("table1/per-core", bench(
			func(m *topology.Machine) int { return m.NumCores() },
			func(m *topology.Machine, t int) int { return t })),
	)
	p.Finalize = func(res *Result, metrics []Metrics) {
		single, perSocket, perCore := metrics[0].Value, metrics[1].Value, metrics[2].Value
		t := res.Tables[0]
		t.Set(0, 1, single/1e6)
		t.Set(0, 2, 1)
		t.Set(1, 1, perSocket/1e6)
		t.Set(1, 2, perSocket/single)
		t.Set(2, 1, perCore/1e6)
		t.Set(2, 2, perCore/single)
	}
	return p
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
