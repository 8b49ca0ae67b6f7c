// Package topology models multisocket multicore machines: their socket/core
// geometry, interconnect hop counts, and the latency parameters of the memory
// hierarchy. It reproduces the two machines of Porobic et al. (VLDB 2012),
// Table 2: a quad-socket 6-core/CPU server and an octo-socket 10-core/CPU
// server, and provides the thread- and instance-placement strategies the
// paper compares (spread, grouped, mix, OS, islands).
package topology

import (
	"fmt"
	"math"

	"islands/internal/sim"
)

// CoreID identifies a hardware core; cores are numbered consecutively within
// a socket, so socket s owns cores [s*CoresPerSocket, (s+1)*CoresPerSocket).
type CoreID int

// SocketID identifies a CPU socket.
type SocketID int

// Latencies holds the virtual-time cost parameters of the memory hierarchy,
// in nanoseconds. They are calibrated so that the counter microbenchmarks of
// the paper (Figure 2, Table 1) reproduce the published ratios.
type Latencies struct {
	L1  sim.Time // private L1 hit
	L2  sim.Time // private L2 hit
	LLC sim.Time // shared last-level cache hit, same socket

	// Cache-to-cache transfer of a modified line.
	C2CSameSocket  sim.Time // between cores of one socket
	C2CCrossBase   sim.Time // first interconnect hop
	C2CCrossPerHop sim.Time // each additional hop

	DRAMLocal        sim.Time // memory attached to the local socket
	DRAMRemoteBase   sim.Time // remote memory, first hop
	DRAMRemotePerHop sim.Time // each additional hop
}

// Machine describes one server.
type Machine struct {
	Name           string
	SocketCount    int
	CoresPerSocket int
	ClockGHz       float64

	L1Bytes  int64 // per core
	L2Bytes  int64 // per core
	LLCBytes int64 // per socket
	RAMBytes int64 // whole machine

	Lat Latencies

	// Interconnect is the socket fabric: the named hop matrix every
	// distance-dependent cost (cache-to-cache transfers, remote DRAM, IPC
	// wire latency) is computed over.
	Interconnect Interconnect

	// LatencyScale multiplies every cross-socket latency term — the
	// C2CCrossBase/PerHop and DRAMRemoteBase/PerHop contributions here and
	// the IPC layer's cross-socket wire costs (all routed through
	// ScaleCross) — leaving same-socket terms untouched. 0 and 1 both mean
	// unscaled; 0.5 asks the paper's what-if question "what if the
	// interconnect were twice as fast?" with one knob instead of five
	// hand-edited parameters.
	LatencyScale float64
}

// NumCores returns the total number of cores.
func (m *Machine) NumCores() int { return m.SocketCount * m.CoresPerSocket }

// SocketOf returns the socket that owns core c.
func (m *Machine) SocketOf(c CoreID) SocketID {
	return SocketID(int(c) / m.CoresPerSocket)
}

// CoresOf returns the cores of socket s in ascending order.
func (m *Machine) CoresOf(s SocketID) []CoreID {
	cores := make([]CoreID, m.CoresPerSocket)
	for i := range cores {
		cores[i] = CoreID(int(s)*m.CoresPerSocket + i)
	}
	return cores
}

// AllCores returns every core in ascending order.
func (m *Machine) AllCores() []CoreID {
	cores := make([]CoreID, m.NumCores())
	for i := range cores {
		cores[i] = CoreID(i)
	}
	return cores
}

// Hops returns interconnect hops between two sockets (0 if equal).
func (m *Machine) Hops(a, b SocketID) int { return m.Interconnect.Hops(a, b) }

// ScaleCross applies the machine's LatencyScale to a cross-socket latency
// term. Every consumer of cross-socket distance (TransferCost, DRAMCost,
// the MESI model's remote fetches, the IPC wire) routes its cross-socket
// cost through here, so scaling the interconnect is one parameter.
func (m *Machine) ScaleCross(t sim.Time) sim.Time {
	s := m.LatencyScale
	if s == 0 || s == 1 {
		return t
	}
	return sim.Time(math.Round(float64(t) * s))
}

// CrossC2C returns the scaled cost of a cache-to-cache transfer that
// crosses h interconnect hops (h >= 1): the first hop at C2CCrossBase,
// each additional at C2CCrossPerHop, scaled by LatencyScale.
func (m *Machine) CrossC2C(h int) sim.Time {
	return m.ScaleCross(m.Lat.C2CCrossBase + sim.Time(h-1)*m.Lat.C2CCrossPerHop)
}

// TransferCost returns the latency for core "to" to obtain a cache line last
// owned by core "from" — the fundamental quantity behind every contention
// effect in the paper.
func (m *Machine) TransferCost(from, to CoreID) sim.Time {
	if from == to {
		return m.Lat.L1
	}
	sa, sb := m.SocketOf(from), m.SocketOf(to)
	if sa == sb {
		return m.Lat.C2CSameSocket
	}
	return m.CrossC2C(m.Hops(sa, sb))
}

// DRAMCost returns the latency for core c to load a line homed on socket
// home.
func (m *Machine) DRAMCost(c CoreID, home SocketID) sim.Time {
	s := m.SocketOf(c)
	if s == home {
		return m.Lat.DRAMLocal
	}
	h := m.Hops(s, home)
	return m.ScaleCross(m.Lat.DRAMRemoteBase + sim.Time(h-1)*m.Lat.DRAMRemotePerHop)
}

// MeanHops returns the average hop count over distinct socket pairs — a
// measure of interconnect diameter used in reporting.
func (m *Machine) MeanHops() float64 { return m.Interconnect.MeanHops() }

// CrossTable precomputes the dense SocketCount x SocketCount latency table
// of a distance-dependent cost: entry [a*SocketCount+b] is `same` when
// a == b, and otherwise the LatencyScale-scaled
// `base + (hops(a,b)-1)*perHop` — exactly the arithmetic CrossC2C, DRAMCost
// and the IPC wire perform per access. Hot paths (the MESI classifier, the
// IPC send path, the kernel's lookahead construction) build the tables they
// need once at deployment build time and index them instead of re-walking
// the hop matrix and re-scaling per message; a machine whose fabric or
// LatencyScale changes must rebuild its tables (deployments never mutate a
// machine after construction, so each cell's build point is the natural
// invalidation boundary).
func (m *Machine) CrossTable(same, base, perHop sim.Time) []sim.Time {
	n := m.SocketCount
	t := make([]sim.Time, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				t[a*n+b] = same
				continue
			}
			h := m.Hops(SocketID(a), SocketID(b))
			t[a*n+b] = m.ScaleCross(base + sim.Time(h-1)*perHop)
		}
	}
	return t
}

// SocketTable precomputes the core -> socket map as a dense slice, the
// lookup twin of SocketOf for table-indexed hot paths.
func (m *Machine) SocketTable() []SocketID {
	t := make([]SocketID, m.NumCores())
	for i := range t {
		t[i] = m.SocketOf(CoreID(i))
	}
	return t
}

func (m *Machine) String() string {
	return fmt.Sprintf("%s: %d sockets x %d cores @ %.2f GHz, %d MB LLC/socket",
		m.Name, m.SocketCount, m.CoresPerSocket, m.ClockGHz, m.LLCBytes>>20)
}

// defaultLatencies is the calibrated latency set shared by both machines.
// Values are typical of Nehalem-EX class parts and were tuned so the Table 1
// counter experiment reproduces the paper's 18.5x / 517x speedup ladder.
func defaultLatencies() Latencies {
	return Latencies{
		L1:               2,
		L2:               5,
		LLC:              15,
		C2CSameSocket:    18,
		C2CCrossBase:     55,
		C2CCrossPerHop:   12,
		DRAMLocal:        65,
		DRAMRemoteBase:   105,
		DRAMRemotePerHop: 20,
	}
}

// QuadSocket models the paper's 4 x Intel Xeon E7530 server: 4 sockets,
// 6 cores each, fully connected with QPI, 64 GB RAM, 12 MB L3 per socket.
func QuadSocket() *Machine {
	return &Machine{
		Name:           "quad-socket",
		SocketCount:    4,
		CoresPerSocket: 6,
		ClockGHz:       1.86,
		L1Bytes:        64 << 10,
		L2Bytes:        256 << 10,
		LLCBytes:       12 << 20,
		RAMBytes:       64 << 30,
		Lat:            defaultLatencies(),
		Interconnect:   FullyConnected(4),
	}
}

// OctoSocket models the paper's 8 x Intel Xeon E7-L8867 server: 8 sockets,
// 10 cores each, 3 QPI links per CPU arranged as a 3-cube (so some socket
// pairs are multiple hops; Supermicro X8OBN), 192 GB RAM, 30 MB L3 per
// socket.
func OctoSocket() *Machine {
	return &Machine{
		Name:           "octo-socket",
		SocketCount:    8,
		CoresPerSocket: 10,
		ClockGHz:       2.13,
		L1Bytes:        64 << 10,
		L2Bytes:        256 << 10,
		LLCBytes:       30 << 20,
		RAMBytes:       192 << 30,
		Lat:            defaultLatencies(),
		Interconnect:   Hypercube(3),
	}
}

// Custom builds a machine with the given geometry and default latencies,
// fully connected. Useful for tests and what-if advisor questions.
func Custom(name string, sockets, coresPerSocket int, llcBytes int64) *Machine {
	return &Machine{
		Name:           name,
		SocketCount:    sockets,
		CoresPerSocket: coresPerSocket,
		ClockGHz:       2.0,
		L1Bytes:        64 << 10,
		L2Bytes:        256 << 10,
		LLCBytes:       llcBytes,
		RAMBytes:       64 << 30,
		Lat:            defaultLatencies(),
		Interconnect:   FullyConnected(sockets),
	}
}
