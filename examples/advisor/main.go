// Deployment advisor: the paper closes by asking how to "determine the
// ideal size of each island automatically for the given hardware and
// workload" (Section 8). This example answers it for three workloads using
// the library's advisor, which measures each on every candidate island
// size (mean ±σ over three seeds) and calibrates the paper's throughput
// model
//
//	T = (1-p) * T_local(n) + p * T_distr(n)
//
// beside the measurement.
package main

import (
	"fmt"
	"os"

	"islands"
)

func advise(name string, pMultisite float64, write bool, skew float64) {
	// The quad-socket testbed; add geometries to compare machines too.
	quad := islands.Geometry{Name: "quad", Sockets: 4, CoresPerSocket: 6}
	mc := islands.MicroConfig{RowsPerTxn: 10, Write: write, PctMultisite: pMultisite, ZipfS: skew}
	adv, err := islands.Advise(mc, 240000, []islands.Geometry{quad}, []int{1, 2, 4, 12, 24}, 3,
		islands.StudyOptions{Quick: true, Seed: 3})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%s (p=%.0f%%, write=%v, skew=%.2f)\n%s\n", name, pMultisite*100, write, skew, adv.Format())
}

func main() {
	advise("perfectly partitionable updates", 0, true, 0)
	advise("mixed workload with distributed transactions", 0.4, true, 0)
	advise("skewed read-mostly workload", 0.2, false, 0.9)
}
