// TPC-C Payment across deployment strategies: the experiment behind the
// paper's headline result (Figure 7) — on a perfectly partitionable
// workload, fine-grained shared-nothing beats shared-everything by ~4.5x —
// plus the standard 15%-remote variant where distributed payments erode the
// fine-grained advantage.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"islands"
)

// measure runs Payment on one deployment of the machine.
func measure(machine *islands.Machine, instances, warehouses int, remotePct float64) islands.Measurement {
	cfg := islands.Config{
		Machine:   machine,
		Instances: instances,
		Placement: islands.PlacementIslands,
		Mechanism: islands.UnixSocket,
		Tables:    islands.TPCCTables(warehouses),
		Wal:       islands.DefaultWalOptions(),
		LocalOnly: remotePct == 0,
	}
	d := islands.NewDeployment(cfg)
	defer d.Close()
	d.Start(islands.NewPaymentWorkload(islands.TPCCConfig{
		Warehouses: warehouses,
		RemotePct:  remotePct,
		Seed:       7,
	}, d))
	return d.Run(2*islands.Millisecond, 20*islands.Millisecond)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	machine := islands.QuadSocket()
	const warehouses = 24

	fmt.Fprintln(w, "TPC-C Payment,", warehouses, "warehouses on", machine)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "perfectly partitionable (0% remote customers) — Figure 7:")
	configs := []int{24, 4, 1}
	base := map[int]float64{}
	for _, n := range configs {
		m := measure(machine, n, warehouses, 0)
		base[n] = m.ThroughputTPS
		fmt.Fprintf(w, "  %5dISL: %7.0f KTps  (latency %v)\n", n, m.ThroughputTPS/1e3, m.AvgLatency)
	}
	fmt.Fprintf(w, "  fine-grained vs shared-everything: %.1fx\n\n", base[24]/base[1])

	fmt.Fprintln(w, "standard mix (15% remote customers -> distributed payments):")
	for _, n := range configs {
		m := measure(machine, n, warehouses, 0.15)
		delta := 100 * (m.ThroughputTPS - base[n]) / base[n]
		fmt.Fprintf(w, "  %5dISL: %7.0f KTps  (%+.0f%% vs local-only, %d prepares)\n",
			n, m.ThroughputTPS/1e3, delta, m.Prepares)
	}
	return nil
}
