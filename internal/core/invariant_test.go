package core

import (
	"fmt"
	"testing"

	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// TestAtomicityInvariantUnderContention runs a high-conflict distributed
// update workload (2 rows, 50% multisite, heavy skew: plenty of wait-die
// aborts and 2PC aborts) and verifies the atomicity invariant at one virtual
// instant: the machine-wide sum of row version counters equals the
// machine-wide committed row updates plus in-flight bumps (bounded by one
// transaction per worker, each touching at most RowsPerTxn rows).
// An undo bug, a lost 2PC decision, or a partial commit would break it.
func TestAtomicityInvariantUnderContention(t *testing.T) {
	for _, n := range []int{1, 4, 24} {
		n := n
		t.Run(fmt.Sprintf("%dISL", n), func(t *testing.T) {
			m := topology.QuadSocket()
			const rowsPerTxn = 2
			// run returns the aborts, the summed row versions and the
			// committed row updates at one virtual instant. SumRowVersions
			// consumes no virtual time, so reading all instances is one
			// consistent snapshot.
			run := func(shards int) (aborts, versions, committed uint64) {
				cfg := DefaultConfig(m, n, 2400) // small: lots of conflicts
				cfg.Shards = shards
				d := NewDeployment(cfg)
				defer d.Close()
				d.Start(workload.NewMicro(workload.MicroConfig{
					Table: 1, GlobalRows: 2400, RowsPerTxn: rowsPerTxn,
					Write: true, PctMultisite: 0.5, ZipfS: 0.9, Seed: 3,
				}, d.Part))
				d.Kernel.RunFor(10 * sim.Millisecond)
				for _, in := range d.Instances {
					aborts += in.Stats.Aborted
					versions += in.SumRowVersions()
					committed += in.Stats.RowsCommitted
				}
				return aborts, versions, committed
			}
			aborts, versions, committed := run(0)
			if aborts == 0 {
				t.Error("expected wait-die aborts under heavy conflict")
			}
			workers := uint64(m.NumCores())
			maxInflight := workers * rowsPerTxn
			if versions < committed || versions > committed+maxInflight {
				t.Errorf("atomicity violated: sum(versions)=%d committed=%d (+<=%d in flight)",
					versions, committed, maxInflight)
			}
			// The same contended 2PC run on four kernel workers.
			if a, v, c := run(4); a != aborts || v != versions || c != committed {
				t.Errorf("4 kernel workers: aborts=%d versions=%d committed=%d, inline %d/%d/%d",
					a, v, c, aborts, versions, committed)
			}
		})
	}
}

// TestReadOnlyVoteAblation verifies the ablation knob: disabling the
// read-only 2PC optimization forces prepares for read-only participants and
// costs throughput.
func TestReadOnlyVoteAblation(t *testing.T) {
	m := topology.QuadSocket()
	run := func(disable bool) (float64, uint64) {
		cfg := DefaultConfig(m, 4, 24000)
		cfg.DisableReadOnlyVote = disable
		d := NewDeployment(cfg)
		defer d.Close()
		d.Start(workload.NewMicro(workload.MicroConfig{
			Table: 1, GlobalRows: 24000, RowsPerTxn: 4, PctMultisite: 0.5, Seed: 9,
		}, d.Part))
		res := d.Run(sim.Millisecond, 6*sim.Millisecond)
		return res.ThroughputTPS, res.Prepares
	}
	optTPS, optPrepares := run(false)
	rawTPS, rawPrepares := run(true)
	if optPrepares != 0 {
		t.Errorf("read-only workload with the optimization prepared %d times", optPrepares)
	}
	if rawPrepares == 0 {
		t.Error("ablated run should prepare read-only participants")
	}
	if optTPS <= rawTPS {
		t.Errorf("read-only vote should help throughput: %.0f (opt) vs %.0f (full 2PC)", optTPS, rawTPS)
	}
}
