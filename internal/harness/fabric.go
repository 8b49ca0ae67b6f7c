package harness

import (
	"fmt"

	"islands/internal/topology"
	"islands/internal/workload"
)

// fabric: the paper's island argument extrapolated to socket fabrics the
// testbed never had. The two measured machines differ in interconnect as
// much as in core count (full QPI mesh vs 3-cube), so this experiment holds
// the geometry fixed — a hypothetical 16-socket server deployed as
// per-socket islands — and sweeps the fabric itself: fully connected,
// 4-cube, 4x4 mesh, ring. Columns sweep the multisite fraction; a second
// table reports each fabric's mean hop count, the diameter the throughput
// trend should track. While transactions stay partitioned the fabric is
// irrelevant (the island promise); as the multisite fraction grows, every
// added hop is paid on each 2PC message and remote access, so the
// wide-diameter fabrics fall furthest.
func studyFabric(opt Options) *Study {
	fabrics := []topology.Interconnect{
		topology.FullyConnected(fabricSockets),
		topology.Hypercube(4),
		topology.Mesh2D(4, 4),
		topology.Ring(fabricSockets),
	}
	pcts := []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8, 1}
	if opt.Quick {
		pcts = []float64{0, 0.2, 1}
	}
	if opt.Short {
		pcts = []float64{0, 1}
	}

	geos := Interconnects(fabricBase(), fabrics...)
	machines := Machines(geos...)

	rows := make([]string, len(fabrics))
	for i, ic := range fabrics {
		rows[i] = ic.Name
	}
	cols := make([]string, len(pcts))
	for j, p := range pcts {
		cols[j] = fmt.Sprintf("%.0f%%", p*100)
	}

	hopTab := NewTable("mean hops", "", "fabric", rows, "", []string{"mean hops"})
	for i, ic := range fabrics {
		// Structural, not measured: the fabric's diameter is a property of
		// the hop matrix, known before any simulation runs.
		hopTab.Set(i, 0, ic.MeanHops())
	}

	p := &Study{
		ID: "fabric", Title: "Socket-fabric sweep on a 16-socket machine (per-socket islands)", Ref: "Sec 8 (what-if fabrics)",
		Notes: []string{
			"fully-connected vs 4-cube vs 4x4 mesh vs ring on an identical 16s2c geometry; only the hop matrix changes between rows",
			"cross-socket latency x4 (LatencyScale) lifts the per-hop penalty well above scheduling noise, so the diameter ladder is seed-robust",
			"at 0% multisite the fabric is irrelevant (the island promise); the hop penalty appears with distributed transactions",
		},
		Tables: []*Table{
			NewTable("throughput", "KTps", "fabric", rows, "% multisite", cols),
			hopTab,
		},
	}

	// The fully-multisite cells measure with the full window even in quick
	// mode: the whole point of the experiment is that the hop penalty is
	// measured through the stack, not modeled away, and the full window
	// keeps it clear of commit-count quantization. ForceFull also makes
	// these cells the plan's wall-clock outliers (confirmed via islands probe
	// -celltimes), so MicroCell's cost hint front-loads them under parallel
	// dispatch.
	maxPct := pcts[len(pcts)-1]
	p.Cells = Grid(func(idx []int) Cell {
		i, j := idx[0], idx[1]
		return MicroCell(
			fmt.Sprintf("fabric/%s/p=%.0f%%", fabrics[i].Name, pcts[j]*100),
			MicroSpec{
				Machine:   machines[i],
				Instances: fabricSockets,
				Rows:      stdRows,
				MC:        workload.MicroConfig{RowsPerTxn: 10, PctMultisite: pcts[j]},
				ForceFull: pcts[j] == maxPct && maxPct > 0,
			}, TPSEmit(0, i, j))
	}, len(fabrics), len(pcts))
	return p
}

// fabricSockets is the fabric experiment's socket count: 16 sockets admits
// every swept fabric shape (4-cube, 4x4 mesh, 16-ring) and is the widest
// machine the MESI model's 16-socket sharer mask supports.
const fabricSockets = 16

// fabricBase is the fixed geometry every fabric variant shares: 16 small
// sockets, 2 cores each, default LLC, with cross-socket latency scaled x4.
// Only the interconnect differs between rows; the scale applies to every
// fabric equally and amplifies the per-hop wire term so the diameter
// ladder (full > hypercube > mesh > ring at high multisite fractions) sits
// well above wait-die scheduling noise at any seed.
func fabricBase() Geometry {
	return Geometry{Sockets: fabricSockets, CoresPerSocket: 2, LatencyScale: 4}
}
