package engine

import (
	"runtime"
	"testing"

	"islands/internal/sim"
)

// cycleSource hands out a fixed set of requests round robin, allocating
// nothing.
type cycleSource struct {
	reqs []Request
	next int
}

func (s *cycleSource) Next(InstanceID, int) Request {
	r := s.reqs[s.next%len(s.reqs)]
	s.next++
	return r
}

// BenchmarkLocalCommit is one committed local update transaction — two row
// updates and two reads, locked, latched, logged and group-committed — on a
// warm two-worker instance: one op is one commit. Undo logs, image arenas,
// coordinator scratches, lock heads, held sets and latch queues are all
// recycled by then, so it must not allocate (CI gates on it).
func BenchmarkLocalCommit(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	in := soloInstance(k, 2, func(*Options) {})
	src := &cycleSource{}
	for i := int64(0); i < 64; i++ {
		key := i * 37 % 2400
		src.reqs = append(src.reqs, Request{Ops: []Op{
			{Table: 1, Key: key, Kind: OpUpdate},
			{Table: 1, Key: (key + 600) % 2400, Kind: OpRead},
			{Table: 1, Key: (key + 1200) % 2400, Kind: OpUpdate},
			{Table: 1, Key: (key + 1800) % 2400, Kind: OpRead},
		}})
	}
	in.Start(src)
	k.RunFor(5 * sim.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	target := in.Stats.Committed + uint64(b.N)
	for in.Stats.Committed < target {
		k.RunFor(10 * sim.Microsecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/commit")
}
