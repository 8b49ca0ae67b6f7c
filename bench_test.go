// Benchmarks regenerating every table and figure of "OLTP on Hardware
// Islands" (BenchmarkExperiment/<id>, one sub-benchmark per registered
// experiment; quick-mode sweeps), plus ablation benchmarks for the design
// choices called out in DESIGN.md.
//
// Experiment benchmarks report the headline series as custom metrics, so
// `go test -bench . -benchmem` doubles as a regression harness for the
// reproduction: the metric names encode config and axis point.
package islands_test

import (
	"fmt"
	"testing"

	"islands"
)

// benchOpts keeps benchmark runs fast; `islands run -full` runs the full
// sweeps.
var benchOpts = islands.StudyOptions{Quick: true, Seed: 42}

// BenchmarkExperiment runs every registered reproduction, one per
// sub-benchmark iteration, and reports the first table's first row as
// metrics: `-bench=BenchmarkExperiment/fig12` selects one.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range islands.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := e.Run(benchOpts)
				if i == 0 {
					reportHeadline(b, res)
				}
			}
		})
	}
}

func reportHeadline(b *testing.B, res *islands.ExperimentResult) {
	if len(res.Tables) == 0 {
		return
	}
	t := res.Tables[0]
	for j, c := range t.Cols {
		name := fmt.Sprintf("%s/%s", sanitize(t.Rows[0]), sanitize(c))
		b.ReportMetric(t.Values[0][j], name)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '%':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// measureTPS runs one deployment/workload combination and returns KTps.
func measureTPS(cfg islands.Config, mc islands.MicroConfig) float64 {
	d := islands.NewDeployment(cfg)
	defer d.Close()
	d.Start(islands.NewMicroWorkload(mc, d))
	m := d.Run(500*islands.Microsecond, 3*islands.Millisecond)
	return m.ThroughputTPS / 1e3
}

// BenchmarkAblationPlacement compares "4 Islands" against the
// topology-unaware "4 Spread" of Figure 4: same instance count, different
// core assignment.
func BenchmarkAblationPlacement(b *testing.B) {
	machine := islands.QuadSocket()
	mc := islands.MicroConfig{Table: 1, GlobalRows: 240000, RowsPerTxn: 10, Write: true, PctMultisite: 0.2, Seed: 1}
	for i := 0; i < b.N; i++ {
		island := islands.DefaultConfig(machine, 4, 240000)
		spread := islands.DefaultConfig(machine, 4, 240000)
		spread.Placement = islands.PlacementSpread
		isl := measureTPS(island, mc)
		spr := measureTPS(spread, mc)
		if i == 0 {
			b.ReportMetric(isl, "islands-KTps")
			b.ReportMetric(spr, "spread-KTps")
			b.ReportMetric(isl/spr, "islands/spread")
		}
	}
}

// BenchmarkAblationReadOnly2PC quantifies the read-only participant
// optimization (vote read-only at work-reply time, skip phase 2).
func BenchmarkAblationReadOnly2PC(b *testing.B) {
	machine := islands.QuadSocket()
	mc := islands.MicroConfig{Table: 1, GlobalRows: 240000, RowsPerTxn: 10, PctMultisite: 0.5, Seed: 1}
	for i := 0; i < b.N; i++ {
		opt := islands.DefaultConfig(machine, 4, 240000)
		raw := islands.DefaultConfig(machine, 4, 240000)
		raw.DisableReadOnlyVote = true
		on := measureTPS(opt, mc)
		off := measureTPS(raw, mc)
		if i == 0 {
			b.ReportMetric(on, "optimized-KTps")
			b.ReportMetric(off, "full2pc-KTps")
			b.ReportMetric(on/off, "speedup")
		}
	}
}

// BenchmarkAblationGroupCommit quantifies group commit for local updates on
// shared-everything (the config with the most commit traffic per log).
func BenchmarkAblationGroupCommit(b *testing.B) {
	machine := islands.QuadSocket()
	mc := islands.MicroConfig{Table: 1, GlobalRows: 240000, RowsPerTxn: 10, Write: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		grouped := islands.DefaultConfig(machine, 1, 240000)
		serial := islands.DefaultConfig(machine, 1, 240000)
		w := islands.DefaultWalOptions()
		w.GroupCommit = false
		serial.Wal = w
		on := measureTPS(grouped, mc)
		off := measureTPS(serial, mc)
		if i == 0 {
			b.ReportMetric(on, "group-KTps")
			b.ReportMetric(off, "nogroup-KTps")
			b.ReportMetric(on/off, "speedup")
		}
	}
}

// BenchmarkAblationSingleThreadOpt quantifies the H-Store-style fast path
// (no locking/latching on single-worker instances) for a perfectly
// partitionable workload, the paper's ~40% cost reduction (Sec 7.1.1).
func BenchmarkAblationSingleThreadOpt(b *testing.B) {
	machine := islands.QuadSocket()
	mc := islands.MicroConfig{Table: 1, GlobalRows: 240000, RowsPerTxn: 10, Seed: 1}
	for i := 0; i < b.N; i++ {
		fast := islands.DefaultConfig(machine, 24, 240000)
		fast.LocalOnly = true
		locked := islands.DefaultConfig(machine, 24, 240000)
		locked.LocalOnly = true
		locked.DisableSingleThreadOpt = true
		on := measureTPS(fast, mc)
		off := measureTPS(locked, mc)
		if i == 0 {
			b.ReportMetric(on, "nolocks-KTps")
			b.ReportMetric(off, "locked-KTps")
			b.ReportMetric(on/off, "speedup")
		}
	}
}

// BenchmarkAblationLogConsolidation quantifies Aether-style consolidated
// log inserts under shared-everything update load (the log mutex is the
// bottleneck the paper attributes SE update costs to).
func BenchmarkAblationLogConsolidation(b *testing.B) {
	machine := islands.QuadSocket()
	mc := islands.MicroConfig{Table: 1, GlobalRows: 240000, RowsPerTxn: 10, Write: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		plain := islands.DefaultConfig(machine, 1, 240000)
		cons := islands.DefaultConfig(machine, 1, 240000)
		w := islands.DefaultWalOptions()
		w.Consolidate = true
		cons.Wal = w
		off := measureTPS(plain, mc)
		on := measureTPS(cons, mc)
		if i == 0 {
			b.ReportMetric(off, "mutex-KTps")
			b.ReportMetric(on, "consolidated-KTps")
			b.ReportMetric(on/off, "speedup")
		}
	}
}
