// Fault injection: crash one island of a four-island deployment while 20%
// of transactions are multisite, and watch the per-window series — the
// throughput dip, the availability drop, the coordinator timeout aborts
// that replace hangs, and the recovery climb once the island replays its
// WAL and reopens. Everything is deterministic: same seed, same fault
// plan, bit-identical output.
package main

import (
	"fmt"
	"strings"

	"islands"
)

func main() {
	machine := islands.QuadSocket()

	cfg := islands.DefaultConfig(machine, 4, 240000)
	cfg.Seed = 7
	// Island 0 fail-stops at t=2ms and stays down for 2ms, plus the time
	// recovery takes to replay its retained WAL. Volatile state — buffer
	// pool, lock tables, in-flight transactions — is lost; durable state
	// comes back via redo recovery.
	cfg.Faults = &islands.FaultPlan{Events: []islands.FaultEvent{
		islands.IslandCrash{At: 2 * islands.Millisecond, Island: 0, DownFor: 2 * islands.Millisecond},
	}}
	d := islands.NewDeployment(cfg)
	defer d.Close()

	src := islands.NewMicroWorkload(islands.MicroConfig{
		Table:        1,
		GlobalRows:   240000,
		RowsPerTxn:   10,
		Write:        true,
		PctMultisite: 0.2,
		Seed:         8,
	}, d)
	d.Start(src)

	// Eight 1ms windows after a 1ms warmup: the crash lands in window 1.
	ws := d.RunWindows(1*islands.Millisecond, 1*islands.Millisecond, 8)

	fmt.Printf("deployment: %s on %s, island 0 crashes at 2ms for 2ms\n\n", d.Label(), machine)
	fmt.Printf("%-8s %10s %8s %8s %10s %8s\n",
		"window", "KTps", "avail", "abort%", "timeouts", "expired")
	for i, w := range ws {
		bar := strings.Repeat("#", int(w.ThroughputTPS/8000))
		fmt.Printf("w%-7d %10.1f %8.3f %8.1f %10d %8d  %s\n",
			i, w.ThroughputTPS/1e3, w.Availability, w.AbortRate*100,
			w.TimeoutAborts, w.Expired, bar)
	}

	total := d.SumWindows(ws)
	var recovery islands.Time
	for _, in := range d.Instances {
		recovery += in.Stats.RecoveryTime
	}
	fmt.Printf("\ncrashes: %d   timeout aborts: %d   dropped messages: %d   WAL replay time: %v\n",
		total.Crashes, total.TimeoutAborts, total.Dropped, recovery)
	fmt.Println("\nno coordinator ever hangs: multisite transactions touching the dead")
	fmt.Println("island abort on the 2PC deadline and retry with backoff until it returns.")
}
