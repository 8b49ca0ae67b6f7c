package core

import (
	"reflect"
	"testing"

	"islands/internal/exec"
	"islands/internal/fault"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// TestCrashUnderMultisiteLoad is the no-hang acceptance test: an island
// dies mid-run while multisite transactions are touching it, and the
// deployment must keep making progress — coordinators abort on the 2PC
// deadline instead of waiting forever — then recover to full throughput.
func TestCrashUnderMultisiteLoad(t *testing.T) {
	run := func(shards int) []Measurement {
		cfg := DefaultConfig(topology.QuadSocket(), 4, 40_000)
		cfg.Seed = 7
		cfg.Shards = shards
		cfg.Faults = &fault.Plan{Events: []fault.Event{
			fault.IslandCrash{At: 1 * sim.Millisecond, Island: 0, DownFor: 1 * sim.Millisecond},
		}}
		d := NewDeployment(cfg)
		defer d.Close()
		src := workload.NewMicro(workload.MicroConfig{
			Table: 1, GlobalRows: 40_000, RowsPerTxn: 10,
			Write: true, PctMultisite: 0.2, Seed: 8,
		}, d.Part)
		d.Start(src)
		return d.RunWindows(500*sim.Microsecond, 500*sim.Microsecond, 8)
	}
	ws := run(0)
	// Four kernel workers run the crash, the 2PC deadlines and the recovery
	// on concurrent windows; under -race this is their coverage.
	if got := run(4); !reflect.DeepEqual(got, ws) {
		t.Errorf("4 kernel workers diverge from the inline run:\n got %+v\nwant %+v", got, ws)
	}

	var dipped, recovered bool
	for i, w := range ws {
		t.Logf("w%d: tps=%.0f abort=%.3f avail=%.3f timeouts=%d crashes=%d expired=%d dropped=%d",
			i, w.ThroughputTPS, w.AbortRate, w.Availability, w.TimeoutAborts, w.Crashes, w.Expired, w.Dropped)
		if w.Availability < 0.99 {
			dipped = true
		}
		if dipped && w.Availability > 0.999 && w.Committed > 0 {
			recovered = true
		}
	}
	if !dipped {
		t.Error("expected an availability dip from the island crash")
	}
	if !recovered {
		t.Error("expected the deployment to recover to full availability")
	}
	var timeouts, committed uint64
	for _, w := range ws {
		timeouts += w.TimeoutAborts
		committed += w.Committed
	}
	if timeouts == 0 {
		t.Error("expected coordinator timeout aborts while the island was down")
	}
	if committed == 0 {
		t.Error("expected committed transactions despite the crash")
	}
}

// TestTimeoutAbortsBillDistinctBucket pins the accounting of fault-mode
// deadline handling: coordinator timeout aborts and orphan expiries bill
// to exec.BTimeout — a bucket of their own, separable from wait-die abort
// time in the breakdown — and only under faults; a healthy run's BTimeout
// time is exactly zero. Two identical faulty runs must agree bit-for-bit.
func TestTimeoutAbortsBillDistinctBucket(t *testing.T) {
	run := func(faulty bool) Measurement {
		m := topology.QuadSocket()
		cfg := DefaultConfig(m, 4, 40_000)
		cfg.Seed = 7
		if faulty {
			cfg.Faults = &fault.Plan{Events: []fault.Event{
				fault.IslandCrash{At: 1 * sim.Millisecond, Island: 0, DownFor: 1 * sim.Millisecond},
			}}
		}
		d := NewDeployment(cfg)
		defer d.Close()
		d.Start(workload.NewMicro(workload.MicroConfig{
			Table: 1, GlobalRows: 40_000, RowsPerTxn: 10,
			Write: true, PctMultisite: 0.2, Seed: 8,
		}, d.Part))
		return d.Run(500*sim.Microsecond, 3*sim.Millisecond)
	}

	faulty := run(true)
	if faulty.TimeoutAborts == 0 {
		t.Fatal("crash run produced no timeout aborts")
	}
	if faulty.Breakdown[exec.BTimeout] == 0 {
		t.Error("timeout aborts did not bill any time to BTimeout")
	}
	if faulty.Breakdown[exec.BLock] == 0 && faulty.Breakdown[exec.BComm] == 0 {
		t.Error("unrelated buckets went dark; billing looks broken")
	}

	healthy := run(false)
	if healthy.Breakdown[exec.BTimeout] != 0 {
		t.Errorf("healthy run billed %v to BTimeout; the bucket must be fault-only",
			healthy.Breakdown[exec.BTimeout])
	}
	if healthy.TimeoutAborts != 0 || healthy.Expired != 0 || healthy.Crashes != 0 {
		t.Errorf("healthy run has fault counters: %d timeouts, %d expired, %d crashes",
			healthy.TimeoutAborts, healthy.Expired, healthy.Crashes)
	}

	// Determinism: the same seed and plan reproduce the measurement exactly,
	// including every breakdown bucket.
	again := run(true)
	if faulty.Breakdown != again.Breakdown {
		t.Errorf("breakdown not reproducible:\n  %v\n  %v", faulty.Breakdown, again.Breakdown)
	}
	if faulty.Committed != again.Committed || faulty.TimeoutAborts != again.TimeoutAborts ||
		faulty.Dropped != again.Dropped || faulty.DownTime != again.DownTime {
		t.Errorf("counters not reproducible: %+v vs %+v", faulty.Snapshot, again.Snapshot)
	}
}
