package harness

import (
	"fmt"

	"islands/internal/core"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// fig12: throughput as hardware parallelism grows, on both machines, for
// fine-grained (per-core), coarse-grained (per-socket) and shared-everything
// deployments at 20% multisite.
func studyFig12(opt Options) *Study {
	p := &Study{
		ID: "fig12", Title: "Scaling with active cores (20% multisite)", Ref: "Figure 12",
		Notes: []string{
			"paper: FG/CG scale linearly; SE scales sublinearly, worst on the octo-socket",
			"QPI/IMC column reproduces the paper's NUMA-friendliness ratio at full core count",
		},
	}
	type machineCase struct {
		machine func() *topology.Machine
		steps   []int
	}
	cases := []machineCase{
		{topology.QuadSocket, []int{6, 12, 18, 24}},
		{topology.OctoSocket, []int{20, 40, 60, 80}},
	}
	if opt.Quick {
		cases[0].steps = []int{6, 24}
		cases[1].steps = []int{20, 80}
	}
	if opt.Short {
		cases = cases[:1] // quad-socket only; the 80-core sweep dominates runtime
	}
	ti := 0
	for _, wk := range writeKinds {
		for _, mc := range cases {
			m := mc.machine()
			cols := append(axis("%d", mc.steps), "QPI/IMC")
			p.Tables = append(p.Tables,
				NewTable(fmt.Sprintf("%s, %s", wk.kind, m.Name), "KTps",
					"config", []string{"FG", "CG", "SE"}, "# cores", cols))
			for i, cfgKind := range []string{"FG", "CG", "SE"} {
				for j, active := range mc.steps {
					instances := 1
					switch cfgKind {
					case "FG":
						instances = active
					case "CG":
						instances = active / m.CoresPerSocket
					}
					emits := []Emit{TPSEmit(ti, i, j)}
					if j == len(mc.steps)-1 {
						emits = append(emits, Emit{ti, i, len(mc.steps),
							func(x Metrics) float64 { return x.M.QPIPerIMC }})
					}
					p.Cells = append(p.Cells, MicroCell(
						fmt.Sprintf("fig12/%s/%s/%s/cores=%d", wk.kind, m.Name, cfgKind, active),
						MicroSpec{
							Machine: mc.machine, Instances: instances, Rows: stdRows,
							MC:    workload.MicroConfig{RowsPerTxn: 10, Write: wk.write, PctMultisite: 0.2},
							Tweak: func(c *core.Config) { c.ActiveCores = active },
						}, emits...))
				}
			}
			ti++
		}
	}
	return p
}

// fig13: tolerance to skew: Zipfian row selection with varying skew factor,
// at 0/20/50% multisite, reads and updates of 2 rows.
func studyFig13(opt Options) *Study {
	skews := []float64{0, 0.25, 0.5, 0.75, 1.0}
	pcts := []float64{0, 0.2, 0.5}
	if opt.Quick {
		skews = []float64{0, 0.5, 1.0}
		pcts = []float64{0, 0.2}
	}
	if opt.Short {
		skews = []float64{0, 1.0}
	}
	configs := []int{24, 4, 1}
	rows := axis("%dISL", configs)
	cols := axis("s=%.2f", skews)

	p := &Study{
		ID: "fig13", Title: "Throughput under skewed access", Ref: "Figure 13",
		Notes: []string{
			"paper: skew collapses fine-grained SN (hot instance) and hurts SE under updates; coarse islands cope best",
			"p=0% runs use the single-thread optimization, as the paper does for local-only workloads",
		},
	}
	ti := 0
	for _, wk := range writeKinds {
		for _, pct := range pcts {
			p.Tables = append(p.Tables,
				NewTable(fmt.Sprintf("%s, %.0f%% multisite", wk.kind, pct*100), "KTps",
					"config", rows, "skew", cols))
			for i, n := range configs {
				for j, s := range skews {
					p.Cells = append(p.Cells, MicroCell(
						fmt.Sprintf("fig13/%s/p=%.0f%%/%dISL/s=%.2f", wk.kind, pct*100, n, s),
						MicroSpec{
							Machine: topology.QuadSocket, Instances: n, Rows: stdRows,
							MC:        workload.MicroConfig{RowsPerTxn: 2, Write: wk.write, PctMultisite: pct, ZipfS: s},
							LocalOnly: pct == 0,
						}, TPSEmit(ti, i, j)))
				}
			}
			ti++
		}
	}
	return p
}

// fig14: growing database size from cache-resident to disk-resident.
// Scaled by 1/100 in rows and buffer pool (and 1/10 in LLC) to preserve the
// dataset/LLC and dataset/buffer-pool crossovers at tractable sizes; column
// labels keep the paper's units.
func studyFig14(opt Options) *Study {
	// Paper: 0.24M..120M rows, 12 GB buffer pool. Scaled: /100.
	sizes := []int64{2400, 24000, 240000, 720000, 1200000}
	labels := []string{"0.24M", "2.4M", "24M", "72M", "120M"}
	if opt.Quick {
		sizes = []int64{2400, 240000, 720000}
		labels = []string{"0.24M", "24M", "72M"}
	}
	if opt.Short {
		sizes = []int64{2400, 720000}
		labels = []string{"0.24M", "72M"}
	}
	// 12 GB / 250 B = 48M rows; /100 = 480000 rows of buffer pool.
	const bpRows = 480000
	bpPages := int(bpRows / 32)

	// Each cell builds its own scaled machine: LLC/10 keeps the
	// dataset-vs-LLC crossover after the 1/100 row scaling.
	scaledQuad := func() *topology.Machine {
		m := topology.QuadSocket()
		m.LLCBytes /= 10
		return m
	}

	configs := []int{24, 4, 1}
	rows := axis("%dISL", configs)

	p := &Study{
		ID: "fig14", Title: "Throughput vs database size (2 rows/txn)", Ref: "Figure 14",
		Notes: []string{
			"rows and buffer pool scaled 1/100, LLC 1/10: crossovers preserved, labels in paper units",
			"beyond the buffer pool (rightmost points) throughput collapses to disk speed",
		},
	}
	ti := 0
	for _, wk := range writeKinds {
		for _, pct := range []float64{0, 0.2} {
			p.Tables = append(p.Tables,
				NewTable(fmt.Sprintf("%s, %.0f%% multisite", wk.kind, pct*100), "KTps",
					"config", rows, "rows (paper scale)", labels))
			for i, n := range configs {
				for j, size := range sizes {
					// Buffer pools are prewarmed (steady state). Datasets that
					// exceed the pool are disk-bound at a few hundred
					// transactions per second: they measure over second-scale
					// (but cheap — events are rare) virtual windows covering
					// many ~5.5ms I/Os, dominate the plan's wall-clock, and
					// are hinted to the front of the parallel dispatch order.
					// DiskHDD keeps the deployment on one event partition (the
					// array is a machine-shared device).
					spec := MicroSpec{
						Machine: scaledQuad, Instances: n, Rows: size,
						MC:        workload.MicroConfig{RowsPerTxn: 2, Write: wk.write, PctMultisite: pct},
						LocalOnly: pct == 0,
						Tweak: func(c *core.Config) {
							c.Disk = core.DiskHDD
							c.BufferPoolPagesTotal = bpPages
							c.Prewarm = true
						},
					}
					diskBound := size/32 > int64(bpPages)
					c := planCell(fmt.Sprintf("fig14/%s/p=%.0f%%/%dISL/rows=%s", wk.kind, pct*100, n, labels[j]),
						false, func(opt Options) plan {
							pl := spec.plan(opt)
							if diskBound {
								pl.warmup, pl.window = 200*sim.Millisecond, 3*sim.Second
								if pl.opt.Quick {
									pl.warmup, pl.window = 100*sim.Millisecond, 1*sim.Second
								}
							}
							return pl
						}, []Emit{TPSEmit(ti, i, j)})
					if diskBound {
						c.CostHint = 2
					}
					p.Cells = append(p.Cells, c)
				}
			}
			ti++
		}
	}
	return p
}
