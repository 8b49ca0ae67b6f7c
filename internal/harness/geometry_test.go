package harness

import "testing"

// TestParseGeometryErrors sweeps the malformed-spec space of ParseGeometry:
// wrong field counts, non-numeric fields, zero or negative dimensions and
// more sockets than the memory model tracks must all error rather than
// build a degenerate machine (or panic in Geometry.Machine later).
func TestParseGeometryErrors(t *testing.T) {
	bad := []string{
		"",
		"4",
		"4:6",
		"4:6:8:ring:extra",
		"a:6:8",
		"4:b:8",
		"4:6:c",
		"4.5:6:8",
		"-1:6:8",
		"4:-6:8",
		"4:6:-8",
		"4:0:8",
		"4:6:0",
		"17:2:12",
	}
	for _, s := range bad {
		if g, err := ParseGeometry(s); err == nil {
			t.Errorf("ParseGeometry(%q) accepted: %+v", s, g)
		}
	}

	// The minimal valid spec still parses, so the loop above is not
	// rejecting everything.
	g, err := ParseGeometry(" 2:2:1 ")
	if err != nil {
		t.Fatal(err)
	}
	if g.Sockets != 2 || g.CoresPerSocket != 2 || g.LLCBytes != 1<<20 || g.Interconnect.Sockets() != 0 {
		t.Fatalf("parsed %+v", g)
	}
}

// TestParseGeometriesErrors covers the list-level failure modes: an empty
// or all-separator list, and one bad element poisoning the whole list.
func TestParseGeometriesErrors(t *testing.T) {
	for _, s := range []string{"", ",", ", ,", ",,"} {
		if gs, err := ParseGeometries(s); err == nil {
			t.Errorf("ParseGeometries(%q) accepted: %v", s, gs)
		}
	}
	if gs, err := ParseGeometries("4:6:8,0:6:8"); err == nil {
		t.Errorf("list with a zero-socket element accepted: %v", gs)
	}
	if gs, err := ParseGeometries("4:6:8,5:5:5:hypercube"); err == nil {
		t.Errorf("list with a bad-fabric element accepted: %v", gs)
	}
}

// TestParseLatencyScalesErrors covers -latscale's failure modes: empty
// lists, non-numeric entries, the zero/negative scales that would silently
// delete or invert cross-socket latency, and the non-finite, huge or
// vanishing ones whose scaled latencies leave sim.Time's positive range.
func TestParseLatencyScalesErrors(t *testing.T) {
	for _, s := range []string{"", ",", "x", "1,x", "0", "-1", "1,0,2", "0.5,-2",
		"NaN", "Inf", "-Inf", "1e300", "1,1e7", "1e-9"} {
		if vs, err := ParseLatencyScales(s); err == nil {
			t.Errorf("ParseLatencyScales(%q) accepted: %v", s, vs)
		}
	}
	vs, err := ParseLatencyScales(" 0.5, 1 ,2,")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0] != 0.5 || vs[1] != 1 || vs[2] != 2 {
		t.Fatalf("parsed %v", vs)
	}
	if vs, err := ParseLatencyScales("0.001,1e6"); err != nil || len(vs) != 2 {
		t.Fatalf("the documented bounds themselves: %v, %v", vs, err)
	}
}

// TestParseMachineSweep covers the shared -geometry/-latscale
// resolution: every geometry fanned across every scale, no sweep without a
// geometry, and a scale with nothing to scale refused.
func TestParseMachineSweep(t *testing.T) {
	geos, err := ParseMachineSweep("4:6:8,8:10:30:ring", "0.5,2")
	if err != nil || len(geos) != 4 {
		t.Fatalf("2 geometries x 2 scales = %v, %v", geos, err)
	}
	if got := geos[3].Label(); got != "8s10c30M-ring-ls2" {
		t.Errorf("last fanned geometry is %q", got)
	}
	if geos, err := ParseMachineSweep("4:6:8", ""); err != nil || len(geos) != 1 || geos[0].LatencyScale != 0 {
		t.Errorf("no -latscale: %v, %v", geos, err)
	}
	if geos, err := ParseMachineSweep("", ""); err != nil || geos != nil {
		t.Errorf("neither flag: %v, %v", geos, err)
	}
	for _, c := range [][2]string{{"", "2"}, {"4:x:8", "2"}, {"4:6:8", "Inf"}} {
		if geos, err := ParseMachineSweep(c[0], c[1]); err == nil {
			t.Errorf("ParseMachineSweep(%q, %q) accepted: %v", c[0], c[1], geos)
		}
	}
}

// TestFabricForErrors covers the fabric clause beyond what the geometry
// tests hit: every named fabric builds over a compatible socket count, and
// unknown names or incompatible counts error.
func TestFabricForErrors(t *testing.T) {
	for _, name := range []string{"full", "ring", "mesh", "torus"} {
		ic, err := FabricFor(name, 6)
		if err != nil {
			t.Errorf("FabricFor(%q, 6): %v", name, err)
			continue
		}
		if ic.Sockets() != 6 {
			t.Errorf("FabricFor(%q, 6) connects %d sockets", name, ic.Sockets())
		}
	}
	if ic, err := FabricFor("hypercube", 8); err != nil || ic.Sockets() != 8 {
		t.Errorf("FabricFor(hypercube, 8) = %v, %v", ic, err)
	}
	if _, err := FabricFor("hypercube", 6); err == nil {
		t.Error("hypercube over 6 sockets accepted")
	}
	if _, err := FabricFor("grid", 4); err == nil {
		t.Error("unknown fabric name accepted")
	}
}
