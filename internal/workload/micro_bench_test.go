package workload

import (
	"slices"
	"sync"
	"testing"

	"islands/internal/engine"
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

// TestStreamsConcurrentFirstUse drives Micro and Mix from four goroutines
// at once, each creating and driving the streams of its own instances from
// their first request, as kernel workers running different partitions do.
// Every request must equal a sequential run's; under -race the test also
// checks that creating streams of different instances shares no unguarded
// state.
func TestStreamsConcurrentFirstUse(t *testing.T) {
	const instances, workers, requests, goroutines = 8, 3, 40, 4
	mc := MicroConfig{Table: 1, GlobalRows: 8000, RowsPerTxn: 10, Write: true, PctMultisite: 0.3, ZipfS: 0.5, Seed: 17}
	microPart := fakePart{n: instances, rows: map[storage.TableID]int64{1: mc.GlobalRows}}
	xc := MixConfig{Warehouses: instances, Weights: StandardMix(), RemotePct: 0.15, RemoteItemPct: 0.01,
		Sizing: SpecSizing().Scaled(100), Seed: 17}
	mixPart := mixPart(instances, xc.Warehouses, xc.Weights, xc.Sizing)

	// drive records every request of instance inst's streams, interleaving
	// its workers, into out.
	drive := func(micro *Micro, mix *Mix, inst int, out [][]engine.Op) {
		for i := range requests * workers {
			w := i % workers
			out[2*i] = slices.Clone(micro.Next(engine.InstanceID(inst), w).Ops)
			out[2*i+1] = slices.Clone(mix.Next(engine.InstanceID(inst), w).Ops)
		}
	}
	run := func(concurrent bool) [][][]engine.Op {
		micro, mix := NewMicro(mc, microPart), NewMix(xc, mixPart)
		got := make([][][]engine.Op, instances)
		for inst := range got {
			got[inst] = make([][]engine.Op, 2*requests*workers)
		}
		if !concurrent {
			for inst := range instances {
				drive(micro, mix, inst, got[inst])
			}
			return got
		}
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for inst := g; inst < instances; inst += goroutines {
					drive(micro, mix, inst, got[inst])
				}
			}()
		}
		wg.Wait()
		return got
	}
	want, got := run(false), run(true)
	for inst := range want {
		for i := range want[inst] {
			if !slices.Equal(got[inst][i], want[inst][i]) {
				t.Fatalf("instance %d request %d: concurrent %v, sequential %v", inst, i, got[inst][i], want[inst][i])
			}
		}
	}
}
