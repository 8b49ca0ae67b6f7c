package harness

import (
	"reflect"
	"testing"

	"islands/internal/core"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// TestFaultCellAggregateEqualsSeriesSum pins a fault cell's whole-run M to
// its window series: every counter is the sum over the windows, and the
// rates are derived from the sums — so BreakdownPerTxn and friends work on
// the aggregate as they do on a window.
func TestFaultCellAggregateEqualsSeriesSum(t *testing.T) {
	x := FaultCell("crash", FaultSpec{
		Machine: topology.QuadSocket, Instances: 4, Rows: stdRows,
		MC:   workload.MicroConfig{RowsPerTxn: 10, Write: true, PctMultisite: 0.2},
		Plan: crashPlan,
	}).Run(quickOpt())

	var sum core.Snapshot
	for i := range x.Series {
		sum.Add(&x.Series[i].Snapshot)
	}
	if !reflect.DeepEqual(x.M.Snapshot, sum) {
		t.Errorf("aggregate counters differ from the series sum:\n%+v\n%+v", x.M.Snapshot, sum)
	}
	if sum.Crashes != 1 || sum.Breakdown.Total() == 0 || sum.Mem.Accesses == 0 || sum.Msgs == 0 ||
		sum.Prepares == 0 || len(sum.PerInstance) != 4 {
		t.Errorf("a crash cell under 2PC load summed to %+v", sum)
	}
	m := x.M
	if m.Committed == 0 || m.AvgLatency != m.TxnTime/sim.Time(m.Committed) {
		t.Errorf("AvgLatency = %v with TxnTime %v over %d commits", m.AvgLatency, m.TxnTime, m.Committed)
	}
	if per := m.BreakdownPerTxn(); m.IPC <= 0 || m.StallFrac <= 0 || per.Total() == 0 {
		t.Errorf("derived values missing from the aggregate: IPC %v, stall %v, breakdown/txn %v", m.IPC, m.StallFrac, per)
	}
}
