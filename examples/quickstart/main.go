// Quickstart: deploy the paper's standard microbenchmark dataset as four
// islands (one per socket) on the quad-socket machine, run a mixed workload
// for 20 simulated milliseconds, and print what the deployment did.
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
	// A 4-socket, 24-core server like the paper's quad-socket Xeon box.
	machine := islands.QuadSocket()

	// 240,000 rows of 250 bytes (the paper's ~60 MB dataset), split across
	// 4 instances placed one-per-socket: "4 Islands".
	cfg := islands.DefaultConfig(machine, 4, 240000)
	d := islands.NewDeployment(cfg)
	defer d.Close()

	// Transactions read 10 rows; 20% of them touch rows owned by other
	// islands and run two-phase commit under the hood.
	src := islands.NewMicroWorkload(islands.MicroConfig{
		Table:        1,
		GlobalRows:   240000,
		RowsPerTxn:   10,
		PctMultisite: 0.2,
		Seed:         1,
	}, d)

	d.Start(src)
	m := d.Run(2*islands.Millisecond, 20*islands.Millisecond)

	fmt.Fprintf(w, "deployment: %s on %s\n", d.Label(), machine)
	fmt.Fprintf(w, "throughput: %.0f transactions/second\n", m.ThroughputTPS)
	fmt.Fprintf(w, "latency:    %v average\n", m.AvgLatency)
	fmt.Fprintf(w, "txns:       %d committed (%d local, %d multisite), %d wait-die retries\n",
		m.Committed, m.Local, m.Multisite, m.Aborted)
	fmt.Fprintf(w, "messages:   %d exchanged (%d across sockets)\n", m.Msgs, m.CrossMsgs)
	fmt.Fprintf(w, "2PC:        %d subordinate executions, %d prepares\n", m.SubWork, m.Prepares)

	bd := m.BreakdownPerTxn()
	fmt.Fprintln(w, "per-transaction time breakdown:")
	for b, v := range bd {
		if v > 0 {
			fmt.Fprintf(w, "  %-14s %v\n", islands.Bucket(b), v)
		}
	}
	return nil
}
