package harness

import (
	"fmt"

	"islands/internal/exec"
	"islands/internal/topology"
	"islands/internal/workload"
)

// writeKinds orders the read-only/update halves shared by the sweep
// experiments; the table order matches the sequential harness of old.
var writeKinds = []struct {
	write bool
	kind  string
}{{false, "read-only"}, {true, "update"}}

// fig9: throughput as the percentage of multisite transactions grows, for
// the read-10 and update-10 microbenchmarks over 24ISL / 4ISL / 1ISL.
func studyFig9(opt Options) *Study {
	pcts := []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8, 1}
	if opt.Quick {
		pcts = []float64{0, 0.2, 1}
	}
	if opt.Short {
		pcts = []float64{0, 1}
	}
	configs := []int{24, 4, 1}

	cols := make([]string, len(pcts))
	for j, p := range pcts {
		cols[j] = fmt.Sprintf("%.0f%%", p*100)
	}
	rows := axis("%dISL", configs)

	p := &Study{
		ID: "fig9", Title: "Throughput vs fraction of multisite transactions", Ref: "Figure 9",
		Notes: []string{
			"paper: shared-everything stays flat; shared-nothing degrades, fine-grained most",
			"locking stays on in all configurations: distributed transactions make it mandatory (Sec 7.1.2)",
		},
	}
	for ti, wk := range writeKinds {
		name := "retrieving 10 rows"
		if wk.write {
			name = "updating 10 rows"
		}
		p.Tables = append(p.Tables, NewTable(name, "KTps", "config", rows, "% multisite", cols))
		for i, n := range configs {
			for j, pct := range pcts {
				p.Cells = append(p.Cells, MicroCell(
					fmt.Sprintf("fig9/%s/%dISL/p=%.0f%%", wk.kind, n, pct*100), MicroSpec{
						Machine: topology.QuadSocket, Instances: n, Rows: stdRows,
						MC: workload.MicroConfig{RowsPerTxn: 10, Write: wk.write, PctMultisite: pct},
					}, TPSEmit(ti, i, j)))
			}
		}
	}
	return p
}

// fig10: cost per transaction as the number of rows grows: local and
// multisite, read-only and update, for six configurations.
func studyFig10(opt Options) *Study {
	rowsPerTxn := []int{2, 4, 8, 12, 18, 24, 30, 40, 60, 80, 100}
	configs := []int{24, 12, 8, 4, 2, 1}
	if opt.Quick {
		rowsPerTxn = []int{2, 10, 40}
		configs = []int{24, 4, 1}
	}
	if opt.Short {
		rowsPerTxn = []int{2, 10}
	}
	cols := axis("%d", rowsPerTxn)
	rowLabels := axis("%dISL", configs)

	p := &Study{
		ID: "fig10", Title: "Cost per transaction vs rows accessed", Ref: "Figure 10",
		Notes: []string{
			"cost = active cores x window / committed transactions, as the paper reports it",
			"local charts run the single-thread optimization on 24ISL (no locking/latching)",
		},
	}
	numCores := topology.QuadSocket().NumCores()
	costEmit := func(table, row, col int) Emit {
		return Emit{table, row, col, func(x Metrics) float64 {
			return float64(x.M.CostPerTxn(numCores)) / 1e3
		}}
	}
	type variant struct {
		name      string
		write     bool
		multisite bool
	}
	variants := []variant{
		{"local read-only", false, false},
		{"multisite read-only", false, true},
		{"local update", true, false},
		{"multisite update", true, true},
	}
	for ti, v := range variants {
		p.Tables = append(p.Tables, NewTable(v.name, "us/txn", "config", rowLabels, "rows", cols))
		for i, n := range configs {
			for j, r := range rowsPerTxn {
				pct := 0.0
				if v.multisite {
					pct = 1.0
				}
				p.Cells = append(p.Cells, MicroCell(
					fmt.Sprintf("fig10/%s/%dISL/rows=%d", v.name, n, r), MicroSpec{
						Machine: topology.QuadSocket, Instances: n, Rows: stdRows,
						MC:        workload.MicroConfig{RowsPerTxn: r, Write: v.write, PctMultisite: pct},
						LocalOnly: !v.multisite,
					}, costEmit(ti, i, j)))
			}
		}
	}
	return p
}

// fig11: time breakdown per transaction for the 4-row microbenchmarks on
// 4ISL at 0/50/100% multisite.
func studyFig11(Options) *Study {
	pcts := []float64{0, 0.5, 1}
	buckets := []struct {
		name string
		ids  []exec.Bucket
	}{
		{"xct execution", []exec.Bucket{exec.BExec, exec.BIO}},
		{"xct management", []exec.Bucket{exec.BXct, exec.BSched}},
		{"communication", []exec.Bucket{exec.BComm}},
		{"locking", []exec.Bucket{exec.BLock, exec.BLatch}},
		{"logging", []exec.Bucket{exec.BLog}},
	}
	rowLabels := make([]string, len(buckets))
	for i, b := range buckets {
		rowLabels[i] = b.name
	}
	cols := make([]string, len(pcts))
	for j, p := range pcts {
		cols[j] = fmt.Sprintf("%.0f%%", p*100)
	}

	p := &Study{
		ID: "fig11", Title: "Time breakdown per transaction (4ISL, 4 rows)", Ref: "Figure 11",
		Notes: []string{
			"paper: communication dominates distributed read-only; updates split between communication and logging",
		},
	}
	bucketEmit := func(table, row, col int, ids []exec.Bucket) Emit {
		return Emit{table, row, col, func(x Metrics) float64 {
			bd := x.M.BreakdownPerTxn()
			var sum float64
			for _, id := range ids {
				sum += float64(bd[id])
			}
			return sum / 1e3
		}}
	}
	for ti, wk := range writeKinds {
		name := "retrieving 4 rows"
		if wk.write {
			name = "updating 4 rows"
		}
		p.Tables = append(p.Tables, NewTable(name, "us/txn", "component", rowLabels, "% multisite", cols))
		for j, pct := range pcts {
			emits := make([]Emit, 0, len(buckets))
			for i, b := range buckets {
				emits = append(emits, bucketEmit(ti, i, j, b.ids))
			}
			p.Cells = append(p.Cells, MicroCell(
				fmt.Sprintf("fig11/%s/p=%.0f%%", wk.kind, pct*100), MicroSpec{
					Machine: topology.QuadSocket, Instances: 4, Rows: stdRows,
					MC: workload.MicroConfig{RowsPerTxn: 4, Write: wk.write, PctMultisite: pct},
				}, emits...))
		}
	}
	return p
}
