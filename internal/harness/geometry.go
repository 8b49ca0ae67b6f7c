package harness

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"islands/internal/mem"
	"islands/internal/topology"
)

// ParseGeometry parses one "sockets:coresPerSocket:LLC-MB[:fabric]" spec
// (e.g. "4:6:8" or "16:4:12:ring") into a Geometry. The optional fourth
// field names the socket fabric — full, ring, mesh, torus or hypercube —
// built over the socket count (mesh and torus factor it into the most-
// square grid; hypercube requires a power of two); omitted means fully
// connected. This is the spec language of the -geometry flag of
// `islands probe` and `islands advise`.
func ParseGeometry(s string) (Geometry, error) {
	f := strings.Split(strings.TrimSpace(s), ":")
	if len(f) != 3 && len(f) != 4 {
		return Geometry{}, fmt.Errorf("geometry %q: want sockets:coresPerSocket:LLC-MB[:fabric]", s)
	}
	sockets, err1 := strconv.Atoi(f[0])
	cores, err2 := strconv.Atoi(f[1])
	llcMB, err3 := strconv.Atoi(f[2])
	if err1 != nil || err2 != nil || err3 != nil || sockets <= 0 || cores <= 0 || llcMB <= 0 {
		return Geometry{}, fmt.Errorf("geometry %q: want positive integers sockets:coresPerSocket:LLC-MB", s)
	}
	if sockets > mem.MaxSockets {
		return Geometry{}, fmt.Errorf("geometry %q has %d sockets; the MESI model's sharer mask supports at most %d",
			s, sockets, mem.MaxSockets)
	}
	g := Geometry{
		Sockets:        sockets,
		CoresPerSocket: cores,
		LLCBytes:       int64(llcMB) << 20,
	}
	if len(f) == 4 {
		ic, err := FabricFor(f[3], sockets)
		if err != nil {
			return Geometry{}, fmt.Errorf("geometry %q: %w", s, err)
		}
		g.Interconnect = ic
	}
	return g, nil
}

// ParseGeometries parses a comma-separated list of geometry specs,
// e.g. "16:4:12,8:10:30:ring". Empty elements are skipped; an empty list
// is an error.
func ParseGeometries(s string) ([]Geometry, error) {
	var out []Geometry
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		g, err := ParseGeometry(part)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no geometries in %q", s)
	}
	return out, nil
}

// FabricFor builds the named socket fabric over the given socket count.
// Mesh and torus factor the count into the most-square rows x cols grid;
// hypercube requires a power of two.
func FabricFor(name string, sockets int) (topology.Interconnect, error) {
	switch name {
	case "full":
		return topology.FullyConnected(sockets), nil
	case "ring":
		return topology.Ring(sockets), nil
	case "mesh":
		r := squarestRows(sockets)
		return topology.Mesh2D(r, sockets/r), nil
	case "torus":
		r := squarestRows(sockets)
		return topology.Torus2D(r, sockets/r), nil
	case "hypercube", "cube":
		dim := 0
		for 1<<dim < sockets {
			dim++
		}
		if 1<<dim != sockets {
			return topology.Interconnect{}, fmt.Errorf("hypercube needs a power-of-two socket count, got %d", sockets)
		}
		return topology.Hypercube(dim), nil
	default:
		return topology.Interconnect{}, fmt.Errorf("unknown fabric %q (want full, ring, mesh, torus or hypercube)", name)
	}
}

// squarestRows returns the largest divisor of n not exceeding sqrt(n) —
// the row count of the most-square mesh/torus factorization (primes
// degrade to a 1 x n path).
func squarestRows(n int) int {
	best := 1
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			best = r
		}
	}
	return best
}

// Geometry.LatencyScale is bounded to 0.001..1e6: a wire a thousand times
// faster to a million times slower, which already outlasts every window.
// Inside the bounds every scaled cross-socket latency is a positive
// sim.Time: the widest, an IPC wire of some 10^5 ns across a 16-socket
// fabric, stays far below the clock's 2^63 ns, and the narrowest still
// rounds to the >= 1 ns the kernel's lookahead needs. NaN and the
// infinities fail both comparisons.
const minLatencyScale, maxLatencyScale = 1e-3, 1e6

func validLatencyScale(s float64) bool { return s >= minLatencyScale && s <= maxLatencyScale }

// ParseLatencyScales parses a comma-separated list of latency scales
// ("0.5,1,2"), each a finite number within 0.001..1e6 — the -latscale flag
// language shared by the cmds.
func ParseLatencyScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || !validLatencyScale(v) {
			return nil, fmt.Errorf("latency scale %q: want a number within %g..%g", part, minLatencyScale, maxLatencyScale)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scales in %q", s)
	}
	return out, nil
}

// ParseMachineSweep resolves the -geometry and -latscale flags into
// the machines to sweep: the parsed geometries, each fanned across the
// latency scales when latscale is non-empty. An empty geometry flag means
// no sweep (nil), and then a latscale has nothing to scale.
func ParseMachineSweep(geometry, latscale string) ([]Geometry, error) {
	if geometry == "" {
		if latscale != "" {
			return nil, fmt.Errorf("-latscale scopes to a machine sweep; give -geometry too")
		}
		return nil, nil
	}
	geos, err := ParseGeometries(geometry)
	if err != nil || latscale == "" {
		return geos, err
	}
	scales, err := ParseLatencyScales(latscale)
	if err != nil {
		return nil, err
	}
	var fanned []Geometry
	for _, g := range geos {
		fanned = append(fanned, LatencyScales(g, scales...)...)
	}
	return fanned, nil
}

// CandidateSizes enumerates island sizes (instance counts) that divide a
// machine evenly: shared-everything, per-socket multiples, and fine
// grained — the advisor's default candidate set.
func CandidateSizes(cores, sockets int) []int {
	var out []int
	for _, n := range []int{1, 2, sockets, 2 * sockets, cores / 2, cores} {
		if n >= 1 && n <= cores && cores%n == 0 && !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}
