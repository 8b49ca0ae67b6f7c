// Command islandsbench regenerates the tables and figures of "OLTP on
// Hardware Islands" (Porobic et al., VLDB 2012).
//
// Usage:
//
//	islandsbench -list
//	islandsbench [-quick] [-seed N] fig9 fig13 ...
//	islandsbench [-quick] all
//
// Each experiment prints text tables whose rows and series mirror the
// paper's charts; EXPERIMENTS.md records how the measured shapes compare to
// the published ones.
//
// -benchjson runs the sharded-kernel scaling benchmark (one full deployment
// cell on the 64-core scaling geometry, per fabric and shard count) through
// testing.Benchmark and writes a machine-readable BENCH_<shortrev>.json —
// benchmark name, ns/op, allocs/op, shard count, GOMAXPROCS, kernel window
// and wakeup counts, and the committed-transaction count whose equality
// across shard counts is the determinism self-check. -rev overrides the
// `git rev-parse --short HEAD` revision stamp.
//
// -baseline OLD.json (implies -benchjson) additionally prints a
// per-benchmark comparison of the fresh run against a previously committed
// BENCH json: speedup on ns/op and the window/wakeup deltas for records
// both files contain. With a comma-separated list of captures
// (-baseline BENCH_999f540.json,BENCH_9df3fa7.json) it instead prints a
// per-benchmark trend table: one ms/op column per capture in the given
// order, the fresh run last, and the overall speedup of the fresh run
// against the oldest capture that has the benchmark.
//
// -cpuprofile and -memprofile write pprof profiles of whatever work the
// invocation runs (experiments or benchmarks), for digging into the
// simulator's own hot paths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"islands/internal/bench"
	"islands/internal/harness"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	quick := flag.Bool("quick", false, "reduced sweeps and windows")
	seed := flag.Int64("seed", 42, "workload and placement seed")
	benchjson := flag.Bool("benchjson", false, "run the sharded scaling benchmark and write BENCH_<rev>.json")
	benchout := flag.String("benchout", "", "output path for -benchjson ('-' = stdout; default BENCH_<rev>.json)")
	rev := flag.String("rev", "", "revision stamp for -benchjson (default: git rev-parse --short HEAD)")
	baseline := flag.String("baseline", "", "old BENCH json(s) to compare against, comma-separated oldest first (implies -benchjson; 2+ files print a trend table)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "islandsbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "islandsbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "islandsbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "islandsbench: %v\n", err)
			}
		}()
	}

	if *benchjson || *baseline != "" {
		if err := writeBenchJSON(*benchout, *rev, *baseline); err != nil {
			fmt.Fprintf(os.Stderr, "islandsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("  %-8s %-12s %s\n", e.ID, e.Ref, e.Title)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: islandsbench [-quick] [-seed N] <experiment>... | all | -list")
		os.Exit(2)
	}
	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}

	opt := harness.Options{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		e, ok := harness.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "islandsbench: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		res := e.Run(opt)
		fmt.Println(res.Format())
		fmt.Printf("   (completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
}

// benchRecord is one benchmark point of the BENCH json.
type benchRecord struct {
	Name        string  `json:"name"`
	Fabric      string  `json:"fabric,omitempty"`
	Shards      int     `json:"shards"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// CommittedPerOp is the simulated committed-transaction count of one
	// measurement window: identical across worker counts within one fabric,
	// or the kernel's determinism contract is broken.
	CommittedPerOp float64 `json:"committed_per_op"`
	// WindowsPerOp / WakeupsPerOp are the kernel's synchronization-round
	// and per-partition window-entry counts of one measurement window
	// (deterministic virtual-time quantities, the same at every worker
	// count; captures from before the partitioned default read 0 at
	// shards=1).
	WindowsPerOp float64 `json:"windows_per_op,omitempty"`
	WakeupsPerOp float64 `json:"wakeups_per_op,omitempty"`
}

// benchFile is the BENCH_<rev>.json document.
type benchFile struct {
	Rev        string        `json:"rev"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Geometry   string        `json:"geometry"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// shortRev resolves the revision stamp: the explicit -rev value, then git,
// then "unknown" (a build from a tarball still produces a usable record).
func shortRev(explicit string) string {
	if explicit != "" {
		return explicit
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if rev := strings.TrimSpace(string(out)); rev != "" {
		return rev
	}
	return "unknown"
}

// runScaling measures one (fabric, shards) point through testing.Benchmark.
// Fully-connected records keep the historical name ShardedScaling/shards=N
// so new files compare against BENCH jsons from before the fabric sweep.
func runScaling(fabric string, shards int) benchRecord {
	name := fmt.Sprintf("ShardedScaling/shards=%d", shards)
	if fabric != "full" {
		name = fmt.Sprintf("ShardedScaling/fabric=%s/shards=%d", fabric, shards)
	}
	fmt.Fprintf(os.Stderr, "bench %s ...\n", name)
	r := testing.Benchmark(func(b *testing.B) { bench.ShardedScalingOn(b, fabric, shards) })
	return benchRecord{
		Name:           name,
		Fabric:         fabric,
		Shards:         shards,
		Iterations:     r.N,
		NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:    r.AllocsPerOp(),
		CommittedPerOp: r.Extra["committed/op"],
		WindowsPerOp:   r.Extra["windows/op"],
		WakeupsPerOp:   r.Extra["wakeups/op"],
	}
}

// writeBenchJSON sweeps the scaling benchmark over fabric x shard count via
// testing.Benchmark and writes the machine-readable record; with a baseline
// it then prints the comparison. Progress goes to stderr; the json (path or
// stdout) carries only data.
func writeBenchJSON(outPath, revFlag, baselinePath string) error {
	doc := benchFile{
		Rev:        shortRev(revFlag),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Geometry:   bench.ScalingGeometryLabel(),
	}
	for _, fabric := range bench.Fabrics() {
		first := -1.0
		for _, shards := range bench.ShardCounts() {
			rec := runScaling(fabric, shards)
			doc.Benchmarks = append(doc.Benchmarks, rec)
			if first < 0 {
				first = rec.CommittedPerOp
			} else if rec.CommittedPerOp != first {
				return fmt.Errorf("determinism check failed: %s committed %v, shards=1 committed %v",
					rec.Name, rec.CommittedPerOp, first)
			}
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err := os.Stdout.Write(data)
		if err != nil {
			return err
		}
	} else {
		if outPath == "" {
			outPath = "BENCH_" + doc.Rev + ".json"
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	if baselinePath != "" {
		var paths []string
		for _, p := range strings.Split(baselinePath, ",") {
			if p = strings.TrimSpace(p); p != "" {
				paths = append(paths, p)
			}
		}
		switch len(paths) {
		case 0:
			return fmt.Errorf("baseline: no paths in %q", baselinePath)
		case 1:
			return printBaseline(doc, paths[0])
		default:
			return printTrend(doc, paths)
		}
	}
	return nil
}

// printTrend renders the fresh run against a series of committed BENCH
// captures as one table: a ms/op column per capture (oldest first, fresh
// run last) and the overall speedup of the fresh run against the oldest
// capture that has the benchmark. Rows keep the first capture's order;
// benchmarks it lacks follow in encounter order, with "-" in columns that
// never measured them — a renamed benchmark shows as a dying row next to a
// new one instead of vanishing.
func printTrend(doc benchFile, paths []string) error {
	type capture struct {
		label string
		order []string
		recs  map[string]benchRecord
	}
	index := func(label string, bs []benchRecord) capture {
		c := capture{label: label, recs: make(map[string]benchRecord, len(bs))}
		for _, b := range bs {
			c.order = append(c.order, b.Name)
			c.recs[b.Name] = b
		}
		return c
	}
	var caps []capture
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		var base benchFile
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("baseline %s: %w", p, err)
		}
		caps = append(caps, index(base.Rev, base.Benchmarks))
	}
	caps = append(caps, index(doc.Rev+"*", doc.Benchmarks))

	var names []string
	seen := map[string]bool{}
	for _, c := range caps {
		for _, n := range c.order {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}

	fmt.Printf("benchmark trend, ms/op (oldest first; * = this run):\n")
	header := fmt.Sprintf("  %-40s", "benchmark")
	for _, c := range caps {
		header += fmt.Sprintf(" %12s", c.label)
	}
	fmt.Println(header + "  speedup")
	for _, n := range names {
		line := fmt.Sprintf("  %-40s", n)
		oldest := -1.0
		for _, c := range caps {
			if b, ok := c.recs[n]; ok {
				line += fmt.Sprintf(" %12.1f", b.NsPerOp/1e6)
				if oldest < 0 {
					oldest = b.NsPerOp
				}
			} else {
				line += fmt.Sprintf(" %12s", "-")
			}
		}
		if b, ok := caps[len(caps)-1].recs[n]; ok && oldest > 0 && oldest != b.NsPerOp {
			line += fmt.Sprintf("  %6.2fx", oldest/b.NsPerOp)
		}
		fmt.Println(line)
	}
	return nil
}

// printBaseline compares the fresh run against an old BENCH json: per-record
// ns/op speedup (old/new; > 1 is faster now) plus window and wakeup deltas
// where both sides recorded them. Records only one side has are listed, not
// compared — renaming a benchmark shows up instead of vanishing.
func printBaseline(doc benchFile, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	old := make(map[string]benchRecord, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	fmt.Printf("vs %s (rev %s):\n", path, base.Rev)
	fmt.Printf("  %-40s %12s %12s %8s\n", "benchmark", "old ms/op", "new ms/op", "speedup")
	matched := 0
	for _, b := range doc.Benchmarks {
		o, ok := old[b.Name]
		if !ok {
			continue
		}
		matched++
		line := fmt.Sprintf("  %-40s %12.1f %12.1f %7.2fx",
			b.Name, o.NsPerOp/1e6, b.NsPerOp/1e6, o.NsPerOp/b.NsPerOp)
		if o.WindowsPerOp > 0 && b.WindowsPerOp > 0 {
			line += fmt.Sprintf("   windows %v -> %v", o.WindowsPerOp, b.WindowsPerOp)
		}
		fmt.Println(line)
	}
	if matched == 0 {
		return fmt.Errorf("baseline %s: no benchmark names in common", path)
	}
	for _, b := range doc.Benchmarks {
		if _, ok := old[b.Name]; !ok {
			fmt.Printf("  %-40s %12s %12.1f     new\n", b.Name, "-", b.NsPerOp/1e6)
		}
	}
	for _, o := range base.Benchmarks {
		found := false
		for _, b := range doc.Benchmarks {
			if b.Name == o.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("  %-40s %12.1f %12s     gone\n", o.Name, o.NsPerOp/1e6, "-")
		}
	}
	return nil
}
