// Result store: memoize study cells across runs. A ResultStore archives
// every executed cell under a content-addressed key — machine, config,
// workload, seed and mode, salted with a fingerprint of the build's
// simulated behavior — so rerunning a study serves finished cells from
// disk without simulating, with bit-identical tables. The store also
// learns each cell's wall-clock and feeds it back as the dispatch-order
// cost hint of later parallel runs.
//
// We run a small geometry study cold (everything simulates and is
// archived), then rerun it warm at a different parallelism and shard
// setting: every cell hits, no simulation runs, and the fingerprints
// match byte-for-byte. A third run replicates the study over two seeds —
// replica 0 is served by the cold run's records, so only the new seed
// simulates. Everything here goes through exported islands identifiers.
package main

import (
	"bytes"
	"fmt"
	"os"

	"islands"
)

func main() {
	dir, err := os.MkdirTemp("", "islands-store")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)

	store, err := islands.OpenResultStore(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer store.Close()

	study := buildStudy()

	// Cold: every cell misses, simulates, and is archived.
	var hits, misses int
	opt := islands.StudyOptions{Quick: true, Seed: 42, Parallel: 1, Store: store,
		CellCache: func(exp, cell string, hit bool) {
			if hit {
				hits++
			} else {
				misses++
			}
		}}
	var cold bytes.Buffer
	study.Run(opt).Fingerprint(&cold)
	fmt.Printf("cold run:  %d hits, %d misses (%d cells archived)\n", hits, misses, store.Len())

	// Warm: same cells, different parallelism — a wall-clock-only knob,
	// excluded from the keys — so every cell is served from the archive
	// without simulating.
	hits, misses = 0, 0
	wopt := opt
	wopt.Parallel = 4
	var warm bytes.Buffer
	study.Run(wopt).Fingerprint(&warm)
	fmt.Printf("warm run:  %d hits, %d misses, byte-identical tables: %v\n",
		hits, misses, bytes.Equal(cold.Bytes(), warm.Bytes()))

	// Seed replication shares the archive too: replica 0 runs at the cold
	// run's seed and is served from its records; only replica 1 simulates.
	hits, misses = 0, 0
	study.Seeds(2).Run(opt)
	fmt.Printf("seeds(2):  %d hits, %d misses (only the new seed simulated)\n", hits, misses)

	fmt.Println()
	fmt.Println("The store persists across processes: point a later run (or")
	fmt.Println("`islands probe -experiments -store DIR`) at the same directory and")
	fmt.Println("it resumes where this one stopped. Keys are salted with the")
	fmt.Println("build's golden fingerprint, so a store can never serve results")
	fmt.Println("the current code would not itself produce.")
}

// buildStudy is a small island-size sweep on a hypothetical 8-socket
// machine — six microbenchmark cells, enough to show the hit accounting.
func buildStudy() *islands.Study {
	geo := islands.Geometry{Name: "demo8", Sockets: 8, CoresPerSocket: 4}
	machine := islands.Machines(geo)[0]
	sizes := []int{32, 8, 1}
	pcts := []float64{0, 0.2}

	rows := make([]string, len(sizes))
	for i, n := range sizes {
		rows[i] = fmt.Sprintf("%dISL", n)
	}
	cols := make([]string, len(pcts))
	for j, p := range pcts {
		cols[j] = fmt.Sprintf("%.0f%%", p*100)
	}
	study := &islands.Study{
		ID:    "demo8",
		Title: "read-10 microbenchmark, island size x multisite fraction",
		Ref:   "result store example",
		Tables: []*islands.Table{
			islands.NewTable("throughput", "KTps", "config", rows, "% multisite", cols),
		},
	}
	study.Cells = islands.Grid(func(idx []int) islands.Cell {
		n, pct := sizes[idx[0]], pcts[idx[1]]
		return islands.MicroCell(
			fmt.Sprintf("demo8/%dISL/p=%.0f%%", n, pct*100),
			islands.MicroCellSpec{
				Machine:   machine,
				Instances: n,
				Rows:      240000,
				MC:        islands.MicroConfig{RowsPerTxn: 10, PctMultisite: pct},
			},
			islands.TPSEmit(0, idx[0], idx[1]))
	}, len(sizes), len(pcts))
	return study
}
