package core

import (
	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
)

// baseIPC is the no-stall instructions-per-cycle of the modeled cores, used
// to convert busy/stall time into the IPC proxy reported in Figure 8.
const baseIPC = 1.6

// Snapshot is a cumulative counter state; measurements are snapshot deltas.
type Snapshot struct {
	Committed   uint64
	Aborted     uint64
	Local       uint64
	Multisite   uint64
	TxnTime     sim.Time
	Breakdown   exec.Breakdown
	Mem         mem.Stats
	Msgs        uint64
	CrossMsgs   uint64
	SubWork     uint64
	Prepares    uint64
	PerInstance []uint64 // committed per instance

	// Fault-injection counters (all zero in healthy runs).
	Crashes       uint64
	TimeoutAborts uint64
	Expired       uint64
	Dropped       uint64
	DownTime      sim.Time // cumulative instance outage, summed over instances
}

// Add accumulates o into s; Sub removes it. Every field of a Snapshot is an
// additive counter, so a window's measurement is the snapshot after it
// minus the one before, and a run's aggregate is its windows added up.
func (s *Snapshot) Add(o *Snapshot) { s.merge(o, 1); s.Mem.Add(o.Mem) }
func (s *Snapshot) Sub(o *Snapshot) { s.merge(o, -1); s.Mem.Sub(o.Mem) }

// merge adds sign*o (+1 or -1; unsigned counters wrap) to every counter but
// Mem, and is the one list of them. PerInstance is rebuilt, not updated in
// place: s may share the slice with the snapshot it was copied from.
func (s *Snapshot) merge(o *Snapshot, sign int64) {
	u, t := uint64(sign), sim.Time(sign)
	s.Committed += u * o.Committed
	s.Aborted += u * o.Aborted
	s.Local += u * o.Local
	s.Multisite += u * o.Multisite
	s.TxnTime += t * o.TxnTime
	for i := range s.Breakdown {
		s.Breakdown[i] += t * o.Breakdown[i]
	}
	s.Msgs += u * o.Msgs
	s.CrossMsgs += u * o.CrossMsgs
	s.SubWork += u * o.SubWork
	s.Prepares += u * o.Prepares
	per := make([]uint64, len(o.PerInstance))
	copy(per, s.PerInstance)
	for i, v := range o.PerInstance {
		per[i] += u * v
	}
	s.PerInstance = per
	s.Crashes += u * o.Crashes
	s.TimeoutAborts += u * o.TimeoutAborts
	s.Expired += u * o.Expired
	s.Dropped += u * o.Dropped
	s.DownTime += t * o.DownTime
}

func (d *Deployment) snapshot() Snapshot {
	s := Snapshot{PerInstance: make([]uint64, 0, len(d.Instances))}
	for _, in := range d.Instances {
		st := in.Stats
		s.Committed += st.Committed
		s.Aborted += st.Aborted
		s.Local += st.Local
		s.Multisite += st.Multisite
		s.TxnTime += st.TxnTime
		s.Breakdown.Add(&st.Breakdown)
		s.SubWork += st.SubWork
		s.Prepares += st.Prepares
		s.PerInstance = append(s.PerInstance, st.Committed)
		s.Crashes += st.Crashes
		s.TimeoutAborts += st.TimeoutAborts
		s.Expired += st.Expired
	}
	s.Mem = d.Model.TotalStats(nil)
	s.Msgs = d.Net.Messages.Load()
	s.CrossMsgs = d.Net.CrossSocket.Load()
	s.Dropped = d.Net.Dropped.Load()
	if d.Injector != nil {
		s.DownTime = d.Injector.DownTime()
	}
	return s
}

// Measurement summarizes one measured window.
type Measurement struct {
	Window sim.Time
	Snapshot

	ThroughputTPS float64
	AvgLatency    sim.Time
	AbortRate     float64 // aborts per attempt

	// Microarchitectural proxies (Figure 8 / Figure 12).
	IPC          float64 // instructions per cycle
	StallFrac    float64 // fraction of cycles stalled on memory
	LLCShareFrac float64 // fraction of cycles moving lines between cores of a socket
	QPIPerIMC    float64 // interconnect bytes / memory-controller bytes

	// Availability is the fraction of instance-time the deployment's
	// instances were up during the window: 1 when healthy, dipping toward
	// (n-1)/n while one of n islands is down. Always 1 without faults.
	Availability float64
}

// Run executes a warmup, then measures a window and returns the delta.
// Call Start first.
func (d *Deployment) Run(warmup, window sim.Time) Measurement {
	return d.RunWindows(warmup, window, 1)[0]
}

// RunWindows executes a warmup and then n consecutive windows of the given
// width, returning one Measurement per window. The series view is what
// fault experiments need: a crash shows up as a throughput dip and an
// availability drop in the windows it spans, and recovery as the climb
// back. Call Start first.
func (d *Deployment) RunWindows(warmup, window sim.Time, n int) []Measurement {
	if !d.started {
		panic("core: Run before Start")
	}
	d.Kernel.RunFor(warmup)
	out := make([]Measurement, n)
	before := d.snapshot()
	for i := range out {
		d.Kernel.RunFor(window)
		after := d.snapshot()
		out[i] = Measurement{Window: window, Snapshot: after}
		out[i].Sub(&before)
		d.derive(&out[i])
		before = after
	}
	return out
}

// SumWindows folds a RunWindows series into one whole-run Measurement:
// counters add, rates are derived over the combined span.
func (d *Deployment) SumWindows(series []Measurement) Measurement {
	var m Measurement
	for i := range series {
		m.Window += series[i].Window
		m.Add(&series[i].Snapshot)
	}
	d.derive(&m)
	return m
}

// derive fills m's rates and microarchitectural proxies from its counters
// and Window — the same arithmetic for one window and for a sum of them.
func (d *Deployment) derive(m *Measurement) {
	m.Availability = 1
	if m.Window > 0 {
		m.Availability = 1 - float64(m.DownTime)/(float64(len(d.Instances))*float64(m.Window))
		m.ThroughputTPS = float64(m.Committed) / m.Window.Seconds()
	}
	if m.Committed > 0 {
		m.AvgLatency = m.TxnTime / sim.Time(m.Committed)
	}
	if attempts := m.Committed + m.Aborted; attempts > 0 {
		m.AbortRate = float64(m.Aborted) / float64(attempts)
	}
	// Cycles = dilated busy time + memory-line stalls; useful instructions
	// are the undilated work. The gap reproduces the IPC and stalled-cycle
	// ladders of Figure 8.
	cycles := float64(m.Mem.BusyTime) + float64(m.Mem.StallTime)
	instr := float64(m.Mem.InstrTime)
	if cycles > 0 {
		m.StallFrac = 1 - instr/cycles
		m.IPC = baseIPC * instr / cycles
		m.LLCShareFrac = float64(m.Mem.C2CSame) * float64(d.Cfg.Machine.Lat.C2CSameSocket) / cycles
	}
	if m.Mem.IMCBytes > 0 {
		m.QPIPerIMC = float64(m.Mem.QPIBytes) / float64(m.Mem.IMCBytes)
	}
}

// CostPerTxn returns the average machine time consumed per committed
// transaction: active-cores x window / committed. This matches how the
// paper reports "cost per transaction" in Figure 10 (total capacity divided
// by throughput).
func (m *Measurement) CostPerTxn(activeCores int) sim.Time {
	if m.Committed == 0 {
		return 0
	}
	return sim.Time(uint64(activeCores) * uint64(m.Window) / m.Committed)
}

// BreakdownPerTxn returns each bucket divided by committed transactions.
// Idle thread time is excluded: it is capacity waiting for work, not a
// per-transaction cost.
func (m *Measurement) BreakdownPerTxn() exec.Breakdown {
	var out exec.Breakdown
	if m.Committed == 0 {
		return out
	}
	for i := range m.Breakdown {
		if exec.Bucket(i) == exec.BIdle {
			continue
		}
		out[i] = m.Breakdown[i] / sim.Time(m.Committed)
	}
	return out
}

// Imbalance returns max/mean committed across instances (skew diagnostic).
func (m *Measurement) Imbalance() float64 {
	if len(m.PerInstance) == 0 || m.Committed == 0 {
		return 1
	}
	var max uint64
	for _, v := range m.PerInstance {
		if v > max {
			max = v
		}
	}
	mean := float64(m.Committed) / float64(len(m.PerInstance))
	return float64(max) / mean
}
