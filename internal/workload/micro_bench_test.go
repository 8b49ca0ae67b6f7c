package workload

import (
	"testing"

	"islands/internal/storage"
)

func benchMicro(pctMultisite, zipfS float64) *Micro {
	part := fakePart{n: 4, rows: map[storage.TableID]int64{1: 240000}}
	return NewMicro(MicroConfig{
		Table: 1, GlobalRows: 240000, RowsPerTxn: 10,
		Write: true, PctMultisite: pctMultisite, ZipfS: zipfS, Seed: 9,
	}, part)
}

// microShapes are the generator's paths: all-local uniform draws, the
// multisite path (its global sampler resolved on the first draw), and
// skewed draws, whose duplicates the scan rejects.
var microShapes = []struct {
	name                string
	pctMultisite, zipfS float64
}{
	{"local", 0, 0},
	{"multisite", 0.5, 0},
	{"skewed", 0.2, 0.99},
}

// BenchmarkMicroNext guards the generator's steady-state allocation rate:
// per-stream scratch (the ops slice) and samplers are reused across
// requests, so after the first call a stream allocates nothing.
func BenchmarkMicroNext(b *testing.B) {
	for _, sh := range microShapes {
		b.Run(sh.name, func(b *testing.B) {
			m := benchMicro(sh.pctMultisite, sh.zipfS)
			for i := 0; i < 16; i++ {
				m.Next(0, 0) // materialize the stream and both samplers
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Next(0, 0)
			}
		})
	}
}

func TestMicroNextSteadyStateAllocFree(t *testing.T) {
	for _, sh := range microShapes {
		m := benchMicro(sh.pctMultisite, sh.zipfS)
		for i := 0; i < 16; i++ {
			m.Next(0, 0) // warm the stream's scratch
		}
		if allocs := testing.AllocsPerRun(200, func() { m.Next(0, 0) }); allocs > 0 {
			t.Errorf("%s: Micro.Next allocates %.1f objects/op in steady state, want 0", sh.name, allocs)
		}
	}
}

// BenchmarkMixNext tracks the full-mix generator's cost; it shares the
// per-stream scratch scheme with Micro.
func BenchmarkMixNext(b *testing.B) {
	cfg := MixConfig{
		Warehouses: 8, Weights: StandardMix(),
		RemotePct: 0.15, RemoteItemPct: 0.01,
		Sizing: SpecSizing().Scaled(10), Seed: 9,
	}
	g := NewMix(cfg, mixPart(4, cfg.Warehouses, cfg.Weights, cfg.Sizing))
	g.Next(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next(0, 0)
	}
}
