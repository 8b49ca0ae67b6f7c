// Study: answer the paper's "what hardware would change the verdict"
// question for machines that were never on the testbed, using only the
// public study API. Three tables come out of one grid helper:
//
//   - island size x multisite fraction on a hypothetical 16-socket,
//     4-cores-per-socket server, every cell replicated over three seeds
//     and reported as mean ±σ;
//   - the socket fabric itself, swept with the machine held fixed (16
//     sockets, 2 cores each, per-socket islands): fully connected, 4-cube,
//     4x4 torus and mesh, ring. The paper's two machines differ in
//     interconnect as much as in core count — a full QPI mesh on the
//     quad-socket, a 3-cube on the octo-socket;
//   - the companion what-if, "what if the interconnect were 2x faster?",
//     as one fabric fanned across latency scales.
//
// Everything here goes through exported islands identifiers; no internal/
// package is imported. The same calls — Geometry, Machines,
// Interconnects/LatencyScales, Grid, MicroCell, Seeds — compose any other
// scenario.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"islands"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	opt := islands.StudyOptions{Quick: true, Seed: 42}
	pcts := []float64{0, 0.2, 1}

	// Table 1: the hypothetical machine, 16 small sockets (64 cores) with
	// 16 MB of LLC each, fully connected. Machines returns fresh-constructor
	// funcs because every cell must model its own private machine. Rows are
	// island sizes: one instance per core / per socket / per quadrant /
	// shared-everything.
	hypo := islands.Machines(islands.Geometry{Name: "hypo16", Sockets: 16, CoresPerSocket: 4, LLCBytes: 16 << 20})[0]
	sizes := []int{64, 16, 4, 1}
	rows := make([]string, len(sizes))
	for i, n := range sizes {
		rows[i] = fmt.Sprintf("%dISL", n)
	}
	study := grid("hypo16", "read-10 microbenchmark on a hypothetical 16-socket machine",
		"custom study (paper Sec 8: what hardware would change the verdict)", "config", rows,
		[]float64{0, 0.2, 0.5, 1}, func(row int, pct float64) (string, islands.MicroCellSpec) {
			return fmt.Sprintf("hypo16/%dISL/p=%.0f%%", sizes[row], pct*100),
				islands.MicroCellSpec{Machine: hypo, Instances: sizes[row]}
		})
	study.Notes = []string{"island size x multisite fraction, 3 seeds per cell; ±σ columns are stddevs"}

	// Seeds(3) fans every cell into three seed replicas and widens each
	// column with its ±σ twin; Run executes all 48 simulations on the
	// parallel executor (results are identical at any Parallel setting).
	fmt.Fprint(w, study.Seeds(3).Run(opt).Format())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Compare with fig9 on the real quad-socket machine: more, smaller")
	fmt.Fprintln(w, "sockets widen fine-grained shared-nothing's lead when the workload")
	fmt.Fprintln(w, "partitions, and deepen its collapse once transactions go multisite.")
	fmt.Fprintln(w)

	// Table 2: one row per fabric. While transactions stay partitioned the
	// fabric is irrelevant (the island promise); once they go multisite,
	// every extra hop is paid on each 2PC message, so throughput falls with
	// the fabric's mean hops.
	base := islands.Geometry{Sockets: 16, CoresPerSocket: 2, LLCBytes: 12 << 20}
	fabrics := islands.Interconnects(base,
		islands.FullyConnected(16), islands.Hypercube(4), islands.Torus2D(4, 4), islands.Mesh2D(4, 4), islands.Ring(16))
	fmt.Fprint(w, fabricStudy("fabrics", "fabric sweep (per-socket islands, read-10)", fabrics, pcts,
		func(g islands.Geometry) string {
			return fmt.Sprintf("%-10s (%.2f mean hops)", g.Interconnect.Name, g.Interconnect.MeanHops())
		}).Run(opt).Format())
	fmt.Fprintln(w)

	// Table 3: the ring — the fabric with the worst diameter — fanned across
	// interconnect latency scales. 0.5 means every cross-socket term
	// (cache-line transfers, remote DRAM, IPC wire) at half latency: one
	// knob, not five hand-edited parameters.
	base.Interconnect = islands.Ring(16)
	scaled := islands.LatencyScales(base, 0.5, 1, 2)
	fmt.Fprint(w, fabricStudy("latscale", "ring fabric across interconnect latency scales", scaled, pcts,
		func(g islands.Geometry) string {
			s := g.LatencyScale
			if s == 0 {
				s = 1
			}
			return fmt.Sprintf("%gx wire latency", s)
		}).Run(opt).Format())

	fmt.Fprintln(w)
	fmt.Fprintln(w, "The hop penalty only exists where the island promise is broken: at 0%")
	fmt.Fprintln(w, "multisite every fabric ties, and at 100% the ring pays its diameter on")
	fmt.Fprintln(w, "every two-phase commit. Halving the wire latency buys back most of it.")
	return nil
}

// fabricStudy is a grid with one row per geometry, each deployed as
// per-socket islands.
func fabricStudy(id, title string, geos []islands.Geometry, pcts []float64,
	rowLabel func(islands.Geometry) string) *islands.Study {
	rows := make([]string, len(geos))
	for i, g := range geos {
		rows[i] = rowLabel(g)
	}
	machines := islands.Machines(geos...)
	return grid(id, title, "fabric study (paper Sec 8: what hardware would change the verdict)", "machine", rows, pcts,
		func(row int, pct float64) (string, islands.MicroCellSpec) {
			g := geos[row]
			return fmt.Sprintf("%s/%s/p=%.0f%%", id, g.Label(), pct*100), islands.MicroCellSpec{
				Machine:   machines[row],
				Instances: g.Sockets,
				// The fully-multisite points carry the fabric verdict, and the
				// per-hop penalty is ~1% of throughput: measure them with the
				// full window so the quick run's commit-count quantization
				// cannot drown the signal (the registered fabric experiment
				// does the same).
				ForceFull: pct == 1,
			}
		})
}

// grid builds a study of one throughput table: a row per label, a column per
// multisite fraction, and at each point a read-10 microbenchmark cell over
// 240,000 rows whose name, machine and instance count cell gives. Grid
// enumerates the cross product row-major, and the index doubles as the emit
// coordinates.
func grid(id, title, ref, rowHead string, rows []string, pcts []float64,
	cell func(row int, pct float64) (string, islands.MicroCellSpec)) *islands.Study {
	cols := make([]string, len(pcts))
	for j, p := range pcts {
		cols[j] = fmt.Sprintf("%.0f%%", p*100)
	}
	study := &islands.Study{
		ID:     id,
		Title:  title,
		Ref:    ref,
		Tables: []*islands.Table{islands.NewTable("throughput", "KTps", rowHead, rows, "% multisite", cols)},
	}
	study.Cells = islands.Grid(func(idx []int) islands.Cell {
		name, spec := cell(idx[0], pcts[idx[1]])
		spec.Rows = 240000
		spec.MC = islands.MicroConfig{RowsPerTxn: 10, PctMultisite: pcts[idx[1]]}
		return islands.MicroCell(name, spec, islands.TPSEmit(0, idx[0], idx[1]))
	}, len(rows), len(pcts))
	return study
}
