package wal

import (
	"testing"

	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// BenchmarkAppend is one update record appended to the log buffer, the
// shape of the benchmark's wal.append_ns probe. It must not allocate (CI
// gates on it).
func BenchmarkAppend(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	m := NewManager(k.DefaultDomain(), DefaultOptions())
	rec := Record{Type: RecUpdate, Txn: 1, Table: 1, Key: 5, WireBytes: 48}
	k.Spawn("w", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		for i := 0; i < b.N; i++ {
			m.Append(ctx, rec)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
