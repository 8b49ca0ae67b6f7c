package harness

import (
	"fmt"

	"islands/internal/topology"
	"islands/internal/workload"
)

// tpcc: the full TPC-C transaction mix (NewOrder, Payment, OrderStatus,
// Delivery, StockLevel at the standard 45/43/4/4/4) across island
// configurations, sweeping the distributed fraction the way the paper's
// TPC-C charts do: remote payments and remote stock updates. Columns scale
// the specification's remote probabilities (15% remote customers, 1%
// remote supplying warehouses per order line) from perfectly partitionable
// (0x) upward; rows compare fine-grained shared-nothing, islands, and
// shared-everything. A second table reports the committed multisite
// fraction so the throughput trend can be read against the distributed
// load that causes it.
func studyTPCCMix(opt Options) *Study {
	const warehouses = 24
	scales := []float64{0, 1, 2, 4, 8}
	configs := []int{24, 4, 1}
	// Table cardinalities are scaled down like Figure 14 scales the
	// microbenchmark dataset (quick mode more aggressively); key derivation
	// and partition alignment are scale-invariant.
	sizing := workload.SpecSizing().Scaled(10)
	if opt.Quick {
		scales = []float64{0, 1, 4}
		sizing = workload.SpecSizing().Scaled(20)
	}
	if opt.Short {
		scales = []float64{0, 4}
		configs = []int{24, 1}
	}

	cols := axis("%gx", scales)
	rows := axis("%dISL", configs)

	p := &Study{
		ID: "tpcc", Title: "Full TPC-C mix across island configurations", Ref: "Figures 7/9 (full mix)",
		Notes: []string{
			"standard 45/43/4/4/4 mix; columns scale the spec's remote probabilities (15% remote customers, 1% remote stock per line)",
			"dataset scaled down fig14-style; item catalog is modulo-replicated per instance (read-only table)",
			"locking stays on in all configurations: the sweep includes distributed points (Sec 7.1.2)",
		},
		Tables: []*Table{
			NewTable("throughput", "KTps", "config", rows, "remote scale", cols),
			NewTable("multisite fraction", "%", "config", rows, "remote scale", cols),
		},
	}

	for i, n := range configs {
		for j, scale := range scales {
			remotePct := 0.15 * scale
			if remotePct > 1 {
				remotePct = 1
			}
			remoteItemPct := 0.01 * scale
			if remoteItemPct > 1 {
				remoteItemPct = 1
			}
			p.Cells = append(p.Cells, TPCCCell(
				fmt.Sprintf("tpcc/%dISL/remote=%gx", n, scale), TPCCSpec{
					Machine: topology.QuadSocket, Instances: n, Warehouses: warehouses,
					Mix:       workload.StandardMix(),
					RemotePct: remotePct, RemoteItemPct: remoteItemPct,
					Sizing: sizing,
				},
				TPSEmit(0, i, j), multisitePctEmit(1, i, j)))
		}
	}
	return p
}
