package harness

import (
	"fmt"

	"islands/internal/core"
	"islands/internal/fault"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// The faults experiment is not a paper figure: it exercises the repo's
// deterministic fault-injection subsystem (the fault package) under the
// paper's standard microbenchmark, and reports per-window series instead of
// one steady-state window — a crash shows up as a throughput dip and an
// availability drop in the windows it spans, and recovery as the climb back.

// faultWindows returns (warmup, window, count) for the current mode. The
// fault plans below are phrased in these units so quick and full runs show
// the same shape: one healthy leading window, an outage spanning the middle,
// and healthy trailing windows.
func faultWindows(opt Options) (sim.Time, sim.Time, int) {
	if opt.Quick {
		return 500 * sim.Microsecond, 500 * sim.Microsecond, 6
	}
	return 2 * sim.Millisecond, 2 * sim.Millisecond, 10
}

// FaultSpec declares a fault-injection microbenchmark cell: a standard
// deployment plus a fault plan phrased in window units.
type FaultSpec struct {
	// Machine constructs the cell's private machine model.
	Machine   func() *topology.Machine
	Instances int
	Rows      int64
	MC        workload.MicroConfig
	LocalOnly bool
	// Plan builds the cell's fault plan from the measurement geometry: the
	// warmup length, the window width and the window count the cell will
	// run. Phrasing fault times in these units keeps quick and full plans
	// congruent.
	Plan func(warmup, window sim.Time, n int) *fault.Plan
	// SeedDelta is added to opt.Seed for this cell.
	SeedDelta int64
	// Tweak optionally adjusts the built config.
	Tweak func(*core.Config)
}

// plan is a microbenchmark plan with the fault schedule wired in (before
// the spec's own tweak) and the windowed measurement geometry.
func (s FaultSpec) plan(opt Options) plan {
	warmup, window, n := faultWindows(opt)
	p := MicroSpec{
		Machine: s.Machine, Instances: s.Instances, Rows: s.Rows, MC: s.MC,
		LocalOnly: s.LocalOnly, SeedDelta: s.SeedDelta,
		Tweak: func(c *core.Config) {
			c.Faults = s.Plan(warmup, window, n)
			if s.Tweak != nil {
				s.Tweak(c)
			}
		},
	}.plan(opt)
	p.tag = "fault"
	p.warmup, p.window, p.series = warmup, window, n
	return p
}

// FaultCell builds a fault-injection cell: it deploys the spec, runs the
// windowed measurement, and returns the per-window series plus a whole-run
// aggregate in M.
func FaultCell(name string, s FaultSpec, emits ...Emit) Cell {
	return planCell(name, false, s.plan, emits)
}

// windowEmit projects one window of the cell's series onto a table cell.
func windowEmit(table, row, col int, f func(core.Measurement) float64) Emit {
	return Emit{table, row, col, func(x Metrics) float64 {
		if col >= len(x.Series) {
			return 0
		}
		return f(x.Series[col])
	}}
}

// crashPlan kills island 0 after the first measured window and keeps it down
// for two windows (plus recovery), so every series shows: healthy baseline,
// outage, recovery climb, healthy tail.
func crashPlan(warmup, window sim.Time, n int) *fault.Plan {
	return &fault.Plan{Events: []fault.Event{
		fault.IslandCrash{At: warmup + window, Island: 0, DownFor: 2 * window},
	}}
}

// grayPlan is the no-crash gray-failure scenario: for the middle two windows
// the 0->1 link runs 4x slow, 2% of engine messages drop machine-wide, and
// island 1's WAL flushes take an extra 30us. Availability stays 1 — the
// damage shows up as throughput loss, timeout aborts and orphan expiries.
func grayPlan(warmup, window sim.Time, n int) *fault.Plan {
	at := warmup + window
	dur := 2 * window
	return &fault.Plan{Events: []fault.Event{
		fault.LinkDegrade{At: at, From: 0, To: 1, Factor: 4, Dur: dur},
		fault.MsgDrop{At: at, Prob: 0.02, Dur: dur},
		fault.WALStall{At: at, Island: 1, Extra: 30 * sim.Microsecond, Dur: dur},
	}}
}

// studyFaults sweeps crash-of-island-0 across island sizes on the standard
// multisite microbenchmark, plus one serial-execution (LocalOnly) crash cell
// and one gray-failure cell, and reports per-window throughput, availability
// and abort-rate series plus whole-run fault counters.
func studyFaults(opt Options) *Study {
	configs := []int{24, 4, 2}
	if opt.Quick {
		configs = []int{4, 2}
	}
	_, _, n := faultWindows(opt)
	cols := make([]string, n)
	for i := range cols {
		cols[i] = fmt.Sprintf("w%d", i)
	}
	rows := make([]string, 0, len(configs)+2)
	for _, c := range configs {
		rows = append(rows, fmt.Sprintf("%dISL/crash", c))
	}
	rows = append(rows, "24ISL-local/crash", "4ISL/gray")

	tput := NewTable("throughput by window", "KTps", "scenario", rows, "window", cols)
	avail := NewTable("availability by window", "", "scenario", rows, "window", cols)
	abort := NewTable("abort rate by window", "", "scenario", rows, "window", cols)
	counters := NewTable("whole-run fault counters", "", "scenario", rows, "counter",
		[]string{"crashes", "timeout aborts", "expired", "dropped"})

	p := &Study{
		ID: "faults", Title: "Fault injection: island crashes and gray failures", Ref: "robustness (no paper figure)",
		Notes: []string{
			"island 0 dies after the first measured window and stays down for two windows plus recovery",
			"same seed, same fault plan: every value here is deterministic and fingerprinted",
		},
		Tables: []*Table{tput, avail, abort, counters},
	}

	emitsFor := func(row int) []Emit {
		es := make([]Emit, 0, 3*n+4)
		for w := 0; w < n; w++ {
			es = append(es,
				windowEmit(0, row, w, func(m core.Measurement) float64 { return m.ThroughputTPS / 1e3 }),
				windowEmit(1, row, w, func(m core.Measurement) float64 { return m.Availability }),
				windowEmit(2, row, w, func(m core.Measurement) float64 { return m.AbortRate }),
			)
		}
		es = append(es,
			Emit{3, row, 0, func(x Metrics) float64 { return float64(x.M.Crashes) }},
			Emit{3, row, 1, func(x Metrics) float64 { return float64(x.M.TimeoutAborts) }},
			Emit{3, row, 2, func(x Metrics) float64 { return float64(x.M.Expired) }},
			Emit{3, row, 3, func(x Metrics) float64 { return float64(x.M.Dropped) }},
		)
		return es
	}

	// The multisite mix keeps 2PC traffic in flight across the crash, so the
	// series also proves the no-hang property: coordinators touching the dead
	// island abort on the deadline and the survivors keep committing.
	mc := workload.MicroConfig{RowsPerTxn: 10, Write: true, PctMultisite: 0.2}
	row := 0
	for _, c := range configs {
		p.Cells = append(p.Cells, FaultCell(fmt.Sprintf("faults/%dISL/crash", c), FaultSpec{
			Machine: topology.QuadSocket, Instances: c, Rows: stdRows,
			MC: mc, Plan: crashPlan,
		}, emitsFor(row)...))
		row++
	}
	// Serial-execution path: single-core LocalOnly instances run the
	// H-Store-style token engine; the crash exercises token condemnation and
	// serial-mode recovery.
	p.Cells = append(p.Cells, FaultCell("faults/24ISL-local/crash", FaultSpec{
		Machine: topology.QuadSocket, Instances: 24, Rows: stdRows,
		MC:        workload.MicroConfig{RowsPerTxn: 10, Write: true},
		LocalOnly: true, Plan: crashPlan,
	}, emitsFor(row)...))
	row++
	p.Cells = append(p.Cells, FaultCell("faults/4ISL/gray", FaultSpec{
		Machine: topology.QuadSocket, Instances: 4, Rows: stdRows,
		MC: mc, Plan: grayPlan,
	}, emitsFor(row)...))
	return p
}
