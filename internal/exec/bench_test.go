package exec

import (
	"testing"

	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// BenchmarkCharge is one compute charge by a thread alone on its core:
// nothing else is due, so the clock bump is inline. It must not allocate
// (CI gates on it).
func BenchmarkCharge(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	m := mem.NewModel(topology.QuadSocket())
	k.Spawn("w", func(p *sim.Proc) {
		c := New(p, 0, m, nil)
		c.BD = &Breakdown{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Charge(10)
		}
		b.StopTimer()
	})
	k.Run()
}
