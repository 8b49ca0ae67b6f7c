// Package bench holds benchmark bodies shared between `go test -bench` and
// the islandsbench -benchjson mode: cmd/islandsbench drives them through
// testing.Benchmark to emit machine-readable BENCH_<rev>.json records, and
// the _test.go wrappers expose the same bodies to the standard bench runner.
package bench

import (
	"fmt"
	"runtime"
	"testing"

	"islands/internal/core"
	"islands/internal/harness"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// scalingGeometry is the largest machine the memory model's 16-socket
// sharer mask admits: 16 sockets x 4 cores = 64 cores, one island per
// socket. (The paper's islands never exceed one socket; 64 cores is the
// "large multisocket" end of its hardware spectrum.)
var scalingGeometry = harness.Geometry{Sockets: 16, CoresPerSocket: 4}

// ScalingGeometryLabel names the benchmark's machine for reports.
func ScalingGeometryLabel() string { return scalingGeometry.Label() }

// Fabrics returns the socket-fabric ladder the scaling benchmark sweeps:
// fully connected (every pair one hop — the flattest case, where the
// lookahead matrix is nearly uniform), the 16-socket ring (diameter 8 — the
// distance-aware windows' best case), and the 4x4 torus in between.
func Fabrics() []string { return []string{"full", "ring", "torus"} }

// scalingGeometryOn returns the scaling geometry on the named fabric.
func scalingGeometryOn(fabric string) harness.Geometry {
	g := scalingGeometry
	switch fabric {
	case "full", "":
		// Zero-value Interconnect: Geometry.Machine installs FullyConnected.
	case "ring":
		g.Interconnect = topology.Ring(16)
	case "torus":
		g.Interconnect = topology.Torus2D(4, 4)
	default:
		panic(fmt.Sprintf("bench: unknown fabric %q (want full, ring, or torus)", fabric))
	}
	return g
}

// ShardCounts returns the kernel worker-count ladder ShardedScaling is swept
// over (core.Config.Shards): powers of two from the default inline kernel —
// one goroutine running all 16 island partitions — up to one worker per
// island, regardless of host core count. On a single-CPU machine the
// multi-worker points still run (the workers serialize) and still produce
// bit-identical simulations; only the wall-clock speedup needs real cores.
func ShardCounts() []int {
	return []int{1, 2, 4, 8, 16}
}

// scalingCell builds and starts one scaling-benchmark deployment: 16
// per-socket islands on the named fabric, the paper's read-10 microbenchmark
// at 20% multisite, with the given kernel worker count.
func scalingCell(fabric string, shards int) *core.Deployment {
	m := scalingGeometryOn(fabric).Machine()
	cfg := core.DefaultConfig(m, 16, 240000)
	cfg.Seed = 42
	cfg.Shards = shards
	d := core.NewDeployment(cfg)
	d.Start(workload.NewMicro(workload.MicroConfig{
		Table: 1, GlobalRows: 240000, RowsPerTxn: 10, PctMultisite: 0.2,
		Seed: 43,
	}, d.Part))
	return d
}

// ShardedScaling measures one full deployment cell — build, load, run the
// quick measurement window, tear down — on the scaling geometry's
// fully-connected fabric with the given kernel worker count. Equivalent to
// ShardedScalingOn(b, "full", shards); kept under its historical name so
// BENCH_<rev>.json records stay comparable across revisions.
func ShardedScaling(b *testing.B, shards int) { ShardedScalingOn(b, "full", shards) }

// ShardedScalingOn is ShardedScaling on the named fabric. The
// committed-transaction count is reported as a benchmark metric; it must be
// identical at every worker count within one fabric (the kernel's
// determinism contract), so a BENCH json is self-checking. windows/op
// reports the kernel's synchronization rounds and wakeups/op the
// per-partition window entries — the overhead the distance-aware lookahead
// matrix shrinks on high-diameter fabrics (see Kernel.Wakeups for why the
// round count itself is a policy invariant under saturation); both depend on
// the fabric only, never on the worker count.
func ShardedScalingOn(b *testing.B, fabric string, shards int) {
	b.ReportAllocs()
	var committed, windows, wakeups uint64
	for i := 0; i < b.N; i++ {
		d := scalingCell(fabric, shards)
		res := d.Run(500*sim.Microsecond, 3*sim.Millisecond)
		windows = d.Kernel.Windows()
		wakeups = d.Kernel.Wakeups()
		d.Close()
		committed = res.Committed
	}
	b.ReportMetric(float64(committed), "committed/op")
	b.ReportMetric(float64(windows), "windows/op")
	b.ReportMetric(float64(wakeups), "wakeups/op")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}
