package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"islands/internal/sim"
	"islands/internal/topology"
)

// refDataAccess is the bulk-data charge as it was before working sets cached
// their per-socket blend: the LLC residency probability (two float
// divisions), the memory policy's DRAM cost and the blended per-line latency
// recomputed on every access. It is kept as the reference
// TestDataAccessMatchesReference drives side by side with dataAccess,
// verbatim but for the name and for an explicit conversion around each
// product, which rounds it exactly as the unfused build always has: a
// compiler that fuses multiply-adds may not fuse these.
func refDataAccess(m *Model, c topology.CoreID, ws *WorkingSet, bytes int) sim.Time {
	if bytes <= 0 {
		return 0
	}
	topo := m.Topo
	st := &m.PerCore[c]
	lines := (bytes + lineBytes - 1) / lineBytes
	pHit := refLLCHitProb(m, ws)

	// DRAM side: local vs remote depends on the instance's memory policy.
	s := topo.SocketOf(c)
	var dram sim.Time
	var remoteFrac float64
	if ws.Interleaved {
		span := ws.span(topo)
		remoteFrac = float64(span-1) / float64(span)
		dram = sim.Time(float64(float64(topo.Lat.DRAMLocal)*(1-remoteFrac)) +
			float64(float64(topo.Lat.DRAMRemoteBase)*remoteFrac))
	} else if ws.HomeSocket == s {
		dram = topo.Lat.DRAMLocal
	} else {
		dram = topo.DRAMCost(c, ws.HomeSocket)
		remoteFrac = 1
	}

	perLine := float64(float64(topo.Lat.LLC)*pHit) + float64(float64(dram)*(1-pHit))
	total := sim.Time(perLine * float64(lines))

	st.Accesses += uint64(lines)
	st.StallTime += total
	hitLines := uint64(pHit * float64(lines))
	missLines := uint64(lines) - hitLines
	st.LLCHits += hitLines
	st.IMCBytes += missLines * lineBytes
	remoteLines := uint64(float64(missLines) * remoteFrac)
	st.DRAMRemote += remoteLines
	st.DRAMLocal += missLines - remoteLines
	st.QPIBytes += remoteLines * lineBytes
	return total
}

// refLLCHitProb is the reference's residency probability, as it was.
func refLLCHitProb(m *Model, ws *WorkingSet) float64 {
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

// refMachines are the machines the reference test sweeps: the paper's two
// boxes and a 16-socket ring, the widest fabric the model supports.
func refMachines(scale float64) []*topology.Machine {
	ring := topology.Custom("ring16", 16, 2, 12<<20)
	ring.Interconnect = topology.Ring(16)
	ms := []*topology.Machine{topology.QuadSocket(), topology.OctoSocket(), ring}
	for _, m := range ms {
		m.LatencyScale = scale
	}
	return ms
}

// refWorkingSets returns working sets homed on every socket (local to the
// cores of that socket, remote to every other), interleaved over two
// sockets and over the whole machine, each at a size the LLCs hold, one
// they do not, and empty.
func refWorkingSets(m *topology.Machine) []*WorkingSet {
	var out []*WorkingSet
	for _, bytes := range []int64{1 << 20, 3 << 30, 0} {
		for s := 0; s < m.SocketCount; s++ {
			out = append(out, &WorkingSet{Bytes: bytes, HomeSocket: topology.SocketID(s), Cores: m.CoresOf(topology.SocketID(s))})
		}
		two := append(m.CoresOf(0), m.CoresOf(topology.SocketID(m.SocketCount-1))...)
		out = append(out,
			&WorkingSet{Bytes: bytes, Interleaved: true, Cores: two},
			&WorkingSet{Bytes: bytes, Interleaved: true, Cores: m.AllCores()})
	}
	return out
}

var refSizes = []int{1, 63, 64, 250, 8192}

// sameAccess charges one access through dataAccess on got and through the
// reference on want and reports any difference in latency or Stats delta.
func sameAccess(got, want *Model, c topology.CoreID, ws *WorkingSet, bytes int) error {
	g0, w0 := got.PerCore[c], want.PerCore[c]
	gl := got.dataAccess(c, ws, bytes)
	wl := refDataAccess(want, c, ws, bytes)
	gd, wd := got.PerCore[c], want.PerCore[c]
	gd.Sub(g0)
	wd.Sub(w0)
	if gl != wl || gd != wd {
		return fmt.Errorf("core %d, %d bytes, working set %+v: latency %v, stats %+v; reference %v, %+v",
			c, bytes, *ws, gl, gd, wl, wd)
	}
	return nil
}

// TestDataAccessMatchesReference: for every core of QuadSocket, OctoSocket
// and a 16-socket ring at LatencyScale 0.5, 1 and 2, every working set of
// refWorkingSets and every size of refSizes, dataAccess returns the
// reference's latency bit for bit and moves every Stats counter by the
// same amount.
func TestDataAccessMatchesReference(t *testing.T) {
	accesses := 0
	for _, scale := range []float64{0.5, 1, 2} {
		for _, m := range refMachines(scale) {
			got, want := NewModel(m), NewModel(m)
			for _, ws := range refWorkingSets(m) {
				for c := 0; c < m.NumCores(); c++ {
					for _, bytes := range refSizes {
						if err := sameAccess(got, want, topology.CoreID(c), ws, bytes); err != nil {
							t.Fatalf("%s scale %v: %v", m.Name, scale, err)
						}
						accesses++
					}
				}
			}
		}
	}
	t.Logf("%d accesses", accesses)
}

// TestDataAccessFollowsWorkingSetChanges: an instance hands out a pointer
// to its working set, so any field may change between two accesses. One
// working set whose Bytes grows and shrinks, whose home moves and whose
// policy flips between accesses from cores of every socket still costs
// exactly what the reference computes from its fields at the time of each
// access — first on one model, then alternating between two models of
// different machines, neither of which may reuse the other's blend.
func TestDataAccessFollowsWorkingSetChanges(t *testing.T) {
	quad := topology.QuadSocket()
	ring := topology.Custom("ring16", 16, 2, 12<<20)
	ring.Interconnect = topology.Ring(16)
	type pair struct{ got, want *Model }
	quadModels := pair{NewModel(quad), NewModel(quad)}
	ringModels := pair{NewModel(ring), NewModel(ring)}
	steps := []func(ws *WorkingSet){
		func(ws *WorkingSet) { ws.Bytes = 3 << 30 },
		func(ws *WorkingSet) { ws.Bytes = 1 << 30 },
		func(ws *WorkingSet) { ws.HomeSocket = 2 },
		func(ws *WorkingSet) { ws.Bytes = 64 << 20 },
		func(ws *WorkingSet) { ws.Interleaved = true },
		func(ws *WorkingSet) { ws.Bytes = 0 },
		func(ws *WorkingSet) { ws.Bytes = 5 << 30 },
		func(ws *WorkingSet) { ws.Interleaved = false },
		func(ws *WorkingSet) { ws.Bytes = 12 << 20 },
		func(ws *WorkingSet) { ws.Bytes = 12<<20 + 1 },
	}
	for _, models := range [][]pair{{quadModels}, {quadModels, ringModels}} {
		ws := &WorkingSet{Bytes: 1 << 20, HomeSocket: 0, Cores: quad.CoresOf(0)}
		for i, step := range steps {
			for _, mp := range models {
				if err := sameAccess(mp.got, mp.want, 23, ws, 250); err != nil {
					t.Fatalf("%d models, before step %d, %s: %v", len(models), i, mp.got.Topo.Name, err)
				}
			}
			step(ws)
			for _, mp := range models {
				for c := 0; c < mp.got.Topo.NumCores(); c += 5 {
					for _, bytes := range refSizes {
						if err := sameAccess(mp.got, mp.want, topology.CoreID(c), ws, bytes); err != nil {
							t.Fatalf("%d models, after step %d, %s: %v", len(models), i, mp.got.Topo.Name, err)
						}
					}
				}
			}
		}
	}
}

// refRead and refWrite are the coherent line accesses as they were before
// hits skipped the classifier: every access classifies, bills and then
// updates the line's state. They are kept, verbatim but for the names, as
// the reference TestLineAccessMatchesReference drives side by side with
// Read and Write.
func refRead(m *Model, c topology.CoreID, l *Line) sim.Time {
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

func refWrite(m *Model, c topology.CoreID, l *Line) sim.Time {
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

// TestLineAccessMatchesReference: random reads and writes of a handful of
// lines, some of them fresh or pinned by SetHome, by cores of every socket — biased toward a few cores
// so hits of both kinds are common — leave latency, every Stats delta and
// every line's state equal to the reference's after each access, on
// QuadSocket, OctoSocket and a 16-socket ring.
func TestLineAccessMatchesReference(t *testing.T) {
	hits := 0
	for _, m := range refMachines(1) {
		got, want := NewModel(m), NewModel(m)
		var gl, wl [6]Line
		rng := rand.New(rand.NewSource(int64(m.SocketCount)))
		favourites := []topology.CoreID{0, 1, topology.CoreID(m.CoresPerSocket), topology.CoreID(m.NumCores() - 1)}
		for op := 0; op < 20000; op++ {
			i := rng.Intn(len(gl))
			c := favourites[rng.Intn(len(favourites))]
			if rng.Intn(3) == 0 {
				c = topology.CoreID(rng.Intn(m.NumCores()))
			}
			g0, w0 := got.PerCore[c], want.PerCore[c]
			var glat, wlat sim.Time
			what := "read"
			switch r := rng.Intn(20); {
			case r == 0:
				// A fresh line, homed by first touch or pinned.
				what = "fresh line"
				gl[i], wl[i] = Line{}, Line{}
				if rng.Intn(2) == 0 {
					home := topology.SocketID(rng.Intn(m.SocketCount))
					gl[i].SetHome(home)
					wl[i].SetHome(home)
				}
			case r < 8:
				what = "write"
				glat, wlat = got.Write(c, &gl[i]), refWrite(want, c, &wl[i])
			default:
				glat, wlat = got.Read(c, &gl[i]), refRead(want, c, &wl[i])
			}
			gd, wd := got.PerCore[c], want.PerCore[c]
			gd.Sub(g0)
			wd.Sub(w0)
			if glat != wlat || gd != wd || gl[i] != wl[i] {
				t.Fatalf("%s op %d, %s of line %d by core %d: latency %v, stats %+v, line %+v; reference %v, %+v, %+v",
					m.Name, op, what, i, c, glat, gd, gl[i], wlat, wd, wl[i])
			}
			if gd.L1Hits+gd.LLCHits > 0 {
				hits++
			}
		}
	}
	if hits < 10000 {
		t.Errorf("only %d hits: the script hardly exercises the hit paths", hits)
	}
}

// TestNewModelRefusesWideMachines: a Line's sharer mask has MaxSockets bits,
// so a machine with a socket beyond them is refused by name rather than
// modelled with broken coherence; the widest supported machine builds.
func TestNewModelRefusesWideMachines(t *testing.T) {
	var l Line
	if bits := int(unsafe.Sizeof(l.sharers)) * 8; bits != MaxSockets {
		t.Fatalf("Line.sharers has %d bits, MaxSockets is %d", bits, MaxSockets)
	}
	NewModel(topology.Custom("widest", MaxSockets, 1, 12<<20))
	defer func() {
		want := "mem: machine wide has 32 sockets; a line's sharer mask tracks at most 16"
		if r := recover(); r != want {
			t.Errorf("recovered %v, want %q", r, want)
		}
	}()
	NewModel(topology.Custom("wide", 32, 1, 12<<20))
	t.Error("NewModel accepted a 32-socket machine")
}
