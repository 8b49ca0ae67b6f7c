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

// BenchmarkDataRead is a row read from an island's working set that the
// LLCs do not hold, from cores on the home socket and one across the
// interconnect in turn: the bulk-data charge every row access pays. It must
// not allocate (CI gates on it).
func BenchmarkDataRead(b *testing.B) {
	topo := topology.QuadSocket()
	m := NewModel(topo)
	ws := &WorkingSet{Bytes: 3 << 30, HomeSocket: 1, Cores: topo.CoresOf(1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.DataRead(topology.CoreID(6+17*(i&1)), ws, 250)
	}
}
