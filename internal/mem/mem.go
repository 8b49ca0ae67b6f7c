// Package mem charges virtual time for memory accesses according to a
// MESI-approximate coherence model over the machine topology.
//
// Hot shared objects (lock words, log-buffer heads, buffer-pool hash
// buckets, page headers, microbenchmark counters) are tracked exactly as
// Lines: the model remembers the last writer and the set of sockets caching
// the line, so the cost of the next access depends on who touched it last
// and from where — the mechanism behind every contention and locality result
// in the paper. Bulk data (row payloads) uses an expected-cost capacity
// model parameterized by the accessing instance's working-set size relative
// to the LLC.
package mem

import (
	"fmt"

	"islands/internal/sim"
	"islands/internal/topology"
)

// Line is one tracked cache line (or page-granularity proxy line).
// The zero value is an untouched line with no home; the first access sets
// its home socket (first-touch NUMA policy, as Linux does).
type Line struct {
	lastWriter topology.CoreID // most recent writer, -1 if clean
	home       topology.SocketID
	sharers    uint16 // bitmask of sockets with a clean copy: MaxSockets bits
	touched    bool
	dirty      bool
}

// Home returns the line's home socket (meaningful once touched).
func (l *Line) Home() topology.SocketID { return l.home }

// Touched reports whether the line has ever been accessed.
func (l *Line) Touched() bool { return l.touched }

// SetHome pins the line's home socket explicitly (overrides first touch),
// modeling numactl-style memory binding for island instances.
func (l *Line) SetHome(s topology.SocketID) {
	l.home = s
	l.touched = true
	l.lastWriter = -1
}

// Stats aggregates per-core access accounting. Times are virtual
// nanoseconds; byte counters feed the QPI/IMC ratio of Figure 12.
type Stats struct {
	Accesses   uint64
	L1Hits     uint64
	LLCHits    uint64
	C2CSame    uint64 // cache-to-cache within a socket (Fig 8 "sharing through LLC")
	C2CCross   uint64 // cache-to-cache across sockets
	DRAMLocal  uint64
	DRAMRemote uint64

	StallTime sim.Time // time lost to memory stalls
	BusyTime  sim.Time // compute wall-time charged via Compute (dilated)
	InstrTime sim.Time // undilated instruction work (IPC numerator)

	QPIBytes uint64 // bytes moved across sockets
	IMCBytes uint64 // bytes moved from memory controllers
}

// Add accumulates o into s; Sub removes it, the delta of two cumulative
// readings.
func (s *Stats) Add(o Stats) { s.merge(o, 1) }
func (s *Stats) Sub(o Stats) { s.merge(o, -1) }

// merge adds sign*o (+1 or -1; unsigned counters wrap) to every counter.
func (s *Stats) merge(o Stats, sign int64) {
	u, t := uint64(sign), sim.Time(sign)
	s.Accesses += u * o.Accesses
	s.L1Hits += u * o.L1Hits
	s.LLCHits += u * o.LLCHits
	s.C2CSame += u * o.C2CSame
	s.C2CCross += u * o.C2CCross
	s.DRAMLocal += u * o.DRAMLocal
	s.DRAMRemote += u * o.DRAMRemote
	s.StallTime += t * o.StallTime
	s.BusyTime += t * o.BusyTime
	s.InstrTime += t * o.InstrTime
	s.QPIBytes += u * o.QPIBytes
	s.IMCBytes += u * o.IMCBytes
}

const lineBytes = 64

// MaxSockets is the widest machine the model supports: a Line tracks the
// sockets holding a clean copy in a 16-bit mask, so a socket numbered 16 or
// higher would silently fall out of coherence accounting. NewModel refuses
// wider machines.
const MaxSockets = 16

// Model is the machine-wide memory model. One Model exists per simulated
// machine; all database instances deployed on that machine share it, exactly
// as they share the physical caches.
//
// The distance-dependent costs of the MESI classifier — cross-socket
// cache-to-cache transfers and remote DRAM fetches — are precomputed into
// dense socket x socket tables at construction (topology.Machine.CrossTable)
// so the per-access hot path is two array lookups instead of hop-matrix
// walks and LatencyScale arithmetic. The tables are built exactly once per
// Model (once per deployment cell); a machine is never mutated after its
// deployment is built, which is what makes the memoization sound.
type Model struct {
	Topo    *topology.Machine
	PerCore []Stats

	sockets  int
	socketOf []topology.SocketID // core -> socket
	c2c      []sim.Time          // socket x socket: C2CSameSocket / scaled CrossC2C
	dram     []sim.Time          // socket x socket: DRAMLocal / scaled remote fetch
	upgrade  sim.Time            // one-hop cross C2C: shared-line write upgrade
}

// NewModel returns a Model for machine m with zeroed statistics and the
// machine's cost tables prebuilt. It panics, naming the machine, if m has
// more than MaxSockets sockets.
func NewModel(m *topology.Machine) *Model {
	if m.SocketCount > MaxSockets {
		panic(fmt.Sprintf("mem: machine %s has %d sockets; a line's sharer mask tracks at most %d",
			m.Name, m.SocketCount, MaxSockets))
	}
	return &Model{
		Topo:     m,
		PerCore:  make([]Stats, m.NumCores()),
		sockets:  m.SocketCount,
		socketOf: m.SocketTable(),
		c2c:      m.CrossTable(m.Lat.C2CSameSocket, m.Lat.C2CCrossBase, m.Lat.C2CCrossPerHop),
		dram:     m.CrossTable(m.Lat.DRAMLocal, m.Lat.DRAMRemoteBase, m.Lat.DRAMRemotePerHop),
		upgrade:  m.CrossC2C(1),
	}
}

// ResetStats clears per-core statistics (used between warmup and the
// measured window).
func (m *Model) ResetStats() {
	for i := range m.PerCore {
		m.PerCore[i] = Stats{}
	}
}

// TotalStats sums statistics over a set of cores (nil means all).
func (m *Model) TotalStats(cores []topology.CoreID) Stats {
	var t Stats
	if cores == nil {
		for i := range m.PerCore {
			t.Add(m.PerCore[i])
		}
		return t
	}
	for _, c := range cores {
		t.Add(m.PerCore[c])
	}
	return t
}

// Compute charges pure CPU work (no memory traffic) to core c and returns d
// unchanged, for symmetry with Read/Write call sites.
func (m *Model) Compute(c topology.CoreID, d sim.Time) sim.Time {
	m.PerCore[c].BusyTime += d
	m.PerCore[c].InstrTime += d
	return d
}

// ComputeDilated charges `actual` wall-time of compute that retires only
// `instr` worth of instructions: the gap models instruction-fetch and
// pipeline stalls of instances that span many cores/sockets (Figure 8).
func (m *Model) ComputeDilated(c topology.CoreID, instr, actual sim.Time) {
	m.PerCore[c].BusyTime += actual
	m.PerCore[c].InstrTime += instr
}

// Read charges core c for reading line l and returns the access latency.
//
// A read of a line c's socket already holds — dirty in c's own cache, or
// clean in the socket's LLC — changes no coherence state (a dirty line's
// only sharer is its writer's socket), so it is billed without classifying:
// the uncontended common case.
func (m *Model) Read(c topology.CoreID, l *Line) sim.Time {
	if l.dirty {
		if l.lastWriter == c {
			return m.hit(c, m.Topo.Lat.L1, hitL1)
		}
	} else if l.sharers&(1<<uint(m.socketOf[c])) != 0 {
		return m.hit(c, m.Topo.Lat.LLC, hitLLC)
	}
	st := &m.PerCore[c]
	st.Accesses++
	lat, kind := m.classify(c, l, false)
	m.bill(st, lat, kind)
	// Reading a dirty remote line downgrades it to shared-clean everywhere.
	s := m.socketOf[c]
	if l.dirty && l.lastWriter != c {
		writerSocket := m.socketOf[l.lastWriterOr(c)]
		l.dirty = false
		l.lastWriter = -1
		l.sharers |= 1 << uint(writerSocket)
	}
	l.sharers |= 1 << uint(s)
	if !l.touched {
		l.touched = true
		l.home = s
		l.lastWriter = -1
	}
	return lat
}

// Write charges core c for writing line l (read-for-ownership plus
// invalidation) and returns the access latency. Rewriting a line c holds
// dirty changes no coherence state and is billed without classifying.
func (m *Model) Write(c topology.CoreID, l *Line) sim.Time {
	if l.dirty && l.lastWriter == c {
		return m.hit(c, m.Topo.Lat.L1, hitL1)
	}
	st := &m.PerCore[c]
	st.Accesses++
	lat, kind := m.classify(c, l, true)
	m.bill(st, lat, kind)
	s := m.socketOf[c]
	if !l.touched {
		l.touched = true
		l.home = s
	}
	l.dirty = true
	l.lastWriter = c
	l.sharers = 1 << uint(s)
	return lat
}

// hit bills core c one access of latency lat that leaves the line as it is.
func (m *Model) hit(c topology.CoreID, lat sim.Time, kind accessKind) sim.Time {
	st := &m.PerCore[c]
	st.Accesses++
	m.bill(st, lat, kind)
	return lat
}

func (l *Line) lastWriterOr(c topology.CoreID) topology.CoreID {
	if l.lastWriter >= 0 {
		return l.lastWriter
	}
	return c
}

type accessKind int

const (
	hitL1 accessKind = iota
	hitLLC
	c2cSame
	c2cCross
	dramLocal
	dramRemote
)

// classify determines where the line is and what it costs core c to get it.
// Distance-dependent costs come from the Model's precomputed tables; they
// are bit-equal to the direct topology arithmetic (TransferCost, CrossC2C,
// DRAMCost) by construction, which TestCostTablesMatchDirect pins per
// fabric and LatencyScale.
func (m *Model) classify(c topology.CoreID, l *Line, write bool) (sim.Time, accessKind) {
	topo := m.Topo
	s := m.socketOf[c]
	if !l.touched {
		// First touch: allocate locally, DRAM-speed cold miss.
		return topo.Lat.DRAMLocal, dramLocal
	}
	if l.dirty {
		w := l.lastWriter
		if w == c {
			return topo.Lat.L1, hitL1
		}
		ws := m.socketOf[w]
		if ws == s {
			return topo.Lat.C2CSameSocket, c2cSame
		}
		return m.c2c[int(ws)*m.sockets+int(s)], c2cCross
	}
	// Clean. A writer that already shares the line still pays to upgrade
	// and invalidate other sockets' copies.
	if l.sharers&(1<<uint(s)) != 0 {
		if write && l.sharers != 1<<uint(s) {
			// Upgrade: invalidate remote copies across the interconnect.
			return m.upgrade, c2cCross
		}
		return topo.Lat.LLC, hitLLC
	}
	if other := l.anySharerSocket(); other >= 0 {
		// Clean copy in a remote LLC: fetch across the interconnect.
		if other == int(s) {
			return topo.Lat.LLC, hitLLC
		}
		return m.c2c[int(s)*m.sockets+other], c2cCross
	}
	// Nowhere cached: memory access at the line's home.
	if l.home == s {
		return topo.Lat.DRAMLocal, dramLocal
	}
	return m.dram[int(s)*m.sockets+int(l.home)], dramRemote
}

func (l *Line) anySharerSocket() int {
	if l.sharers == 0 {
		return -1
	}
	for i := 0; i < MaxSockets; i++ {
		if l.sharers&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

func (m *Model) bill(st *Stats, lat sim.Time, kind accessKind) {
	st.StallTime += lat
	switch kind {
	case hitL1:
		st.L1Hits++
	case hitLLC:
		st.LLCHits++
	case c2cSame:
		st.C2CSame++
		// Line moves within the socket; no QPI or IMC traffic.
	case c2cCross:
		st.C2CCross++
		st.QPIBytes += lineBytes
	case dramLocal:
		st.DRAMLocal++
		st.IMCBytes += lineBytes
	case dramRemote:
		st.DRAMRemote++
		st.IMCBytes += lineBytes
		st.QPIBytes += lineBytes
	}
}
