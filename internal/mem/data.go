package mem

import (
	"islands/internal/sim"
	"islands/internal/topology"
)

// WorkingSet describes the bulk-data locality context of one database
// instance: how much data its workers touch uniformly, where that memory is
// allocated, and how many sockets the instance spans. It parameterizes the
// expected-cost capacity model for row payload accesses, for which exact
// per-line tracking would be wasteful.
type WorkingSet struct {
	Bytes       int64             // resident data accessed ~uniformly
	HomeSocket  topology.SocketID // memory bank for island-placed instances
	Interleaved bool              // memory interleaved across spanned sockets
	Cores       []topology.CoreID // cores the instance runs on
	spanCache   int               // memoized SocketsSpanned
	topo        *topology.Machine // memo owner

	// blend holds, per accessing socket, the expected cost of one line
	// under this working set, built by the Model named in blendKey from the
	// fields the key records. The fields are exported and an instance hands
	// out a pointer to its working set, so every access compares the key
	// and rebuilds the blend when any of them has changed.
	blendKey blendKey
	blend    [MaxSockets]dataBlend
}

// blendKey is what a WorkingSet's blend is derived from. Cores enters
// through the span memo, which is keyed on the machine, as it always was.
type blendKey struct {
	m           *Model
	bytes       int64
	home        topology.SocketID
	interleaved bool
}

// dataBlend is one socket's share of the capacity model: the probability a
// line is LLC-resident, the fraction of DRAM misses served by a remote bank,
// and the expected latency of one line.
type dataBlend struct {
	pHit       float64
	remoteFrac float64
	perLine    float64
}

// span returns (and caches) the number of sockets the instance spans.
func (ws *WorkingSet) span(m *topology.Machine) int {
	if ws.topo != m || ws.spanCache == 0 {
		ws.topo = m
		ws.spanCache = topology.SocketsSpanned(m, ws.Cores)
		if ws.spanCache == 0 {
			ws.spanCache = 1
		}
	}
	return ws.spanCache
}

// llcHitProb returns the probability a uniformly chosen data line of the
// working set is still resident in the LLCs available to the instance.
func (m *Model) llcHitProb(ws *WorkingSet) float64 {
	if ws.Bytes <= 0 {
		return 1
	}
	effective := float64(m.Topo.LLCBytes) * float64(ws.span(m.Topo))
	p := effective / float64(ws.Bytes)
	if p > 1 {
		return 1
	}
	return p
}

// DataRead charges core c for reading `bytes` of bulk row data belonging to
// working set ws and returns the expected latency. The cost blends LLC and
// DRAM according to residency probability; DRAM cost accounts for NUMA
// placement (local bank for islands, interleaved for spanning instances).
// The blend is built once per working set and model (blendData), so an
// access is a table read and three multiplications.
func (m *Model) DataRead(c topology.CoreID, ws *WorkingSet, bytes int) sim.Time {
	return m.dataAccess(c, ws, bytes)
}

// DataWrite charges core c for writing `bytes` of bulk row data. Writes pay
// the same transfer costs as reads (read-for-ownership); dirty write-back is
// asynchronous and not on the critical path.
func (m *Model) DataWrite(c topology.CoreID, ws *WorkingSet, bytes int) sim.Time {
	return m.dataAccess(c, ws, bytes)
}

func (m *Model) dataAccess(c topology.CoreID, ws *WorkingSet, bytes int) sim.Time {
	if bytes <= 0 {
		return 0
	}
	if ws.blendKey != (blendKey{m, ws.Bytes, ws.HomeSocket, ws.Interleaved}) {
		m.blendData(ws)
	}
	b := &ws.blend[m.socketOf[c]]
	st := &m.PerCore[c]
	lines := (bytes + lineBytes - 1) / lineBytes
	total := sim.Time(b.perLine * float64(lines))

	st.Accesses += uint64(lines)
	st.StallTime += total
	hitLines := uint64(b.pHit * float64(lines))
	missLines := uint64(lines) - hitLines
	st.LLCHits += hitLines
	st.IMCBytes += missLines * lineBytes
	remoteLines := uint64(float64(missLines) * b.remoteFrac)
	st.DRAMRemote += remoteLines
	st.DRAMLocal += missLines - remoteLines
	st.QPIBytes += remoteLines * lineBytes
	return total
}

// blendData builds ws's per-socket blend for this model: the LLC residency
// probability and, by the instance's memory policy, the DRAM cost of a miss
// (interleaved across the spanned sockets, or the local or remote home
// bank) blended into one expected per-line latency. Each product is rounded
// by an explicit conversion, so no compiler may fuse a multiply-add here
// and the blend stays bit-equal to the per-access arithmetic it replaced.
func (m *Model) blendData(ws *WorkingSet) {
	topo := m.Topo
	pHit := m.llcHitProb(ws)
	for s := 0; s < m.sockets; s++ {
		var dram sim.Time
		var remoteFrac float64
		if ws.Interleaved {
			span := ws.span(topo)
			remoteFrac = float64(span-1) / float64(span)
			dram = sim.Time(float64(float64(topo.Lat.DRAMLocal)*(1-remoteFrac)) +
				float64(float64(topo.Lat.DRAMRemoteBase)*remoteFrac))
		} else if ws.HomeSocket == topology.SocketID(s) {
			dram = topo.Lat.DRAMLocal
		} else {
			dram = topo.DRAMCost(topology.CoreID(s*topo.CoresPerSocket), ws.HomeSocket)
			remoteFrac = 1
		}
		ws.blend[s] = dataBlend{
			pHit:       pHit,
			remoteFrac: remoteFrac,
			perLine:    float64(float64(topo.Lat.LLC)*pHit) + float64(float64(dram)*(1-pHit)),
		}
	}
	ws.blendKey = blendKey{m, ws.Bytes, ws.HomeSocket, ws.Interleaved}
}
