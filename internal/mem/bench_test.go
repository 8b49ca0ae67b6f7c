package mem

import (
	"testing"

	"islands/internal/topology"
)

// BenchmarkSharedLine is one line two sockets take turns reading and
// writing, the shape of the benchmark's mem.* probes: every access finds it
// last written across the interconnect. It must not allocate (CI gates on
// it).
func BenchmarkSharedLine(b *testing.B) {
	m := NewModel(topology.QuadSocket())
	var line Line
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := topology.CoreID(23 * (i & 1))
		m.Read(c, &line)
		m.Write(c, &line)
	}
}
