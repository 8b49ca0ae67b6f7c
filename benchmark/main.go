// Command benchmark is the repo's measuring stick: four workloads, host
// time per simulated transaction end to end, per-layer probes and a traced
// run. See README.md in this directory for the metrics and how to read
// them; BENCHMARK.json at the repo root is the contract a driver runs it by.
//
//	go run ./benchmark -workload fine_local_read -seed 42 -seconds 25 -trace 0
//	go run ./benchmark -runs 3 -out a.json        # every workload, three runs each
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 25

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+"; empty runs each in its own process")
		seed     = flag.Int64("seed", 42, "workload seed: cfg.Seed, seed+1 the micro generator, seed+2 the TPC-C mix")
		seconds  = flag.Float64("seconds", defaultSeconds, "host seconds one run measures for")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		reps     = flag.Int("reps", 0, "fix the repetition count instead of filling -seconds")
		smoke    = flag.Bool("smoke", false, "tiny sizing for tests: 0.5 ms windows, small tables, two repetitions")
		outDir   = flag.String("outdir", filepath.Join("benchmark", "out"), "directory for traces, temporary stores and default results")
		out      = flag.String("out", "", "also write the result as JSON to this file")
		runs     = flag.Int("runs", 1, "without -workload: runs per workload")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()

	// A deployment's shard count is part of what a repetition is; the
	// environment must not change it behind the benchmark's back.
	os.Unsetenv("ISLANDS_FORCE_SHARDS")
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	z := fullSizing
	if *smoke {
		z = smokeSizing
		if *reps == 0 {
			*reps = 2
		}
	}
	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, reps: *reps, trace: *trace != 0, z: z, outDir: *outDir}

	switch {
	case *spec:
		data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		exitOn(err)
		fmt.Println(string(data))
	case *compare:
		if flag.NArg() != 2 {
			exitOn(errors.New("-compare takes two result files"))
		}
		a, err := readResults(flag.Arg(0))
		exitOn(err)
		b, err := readResults(flag.Arg(1))
		exitOn(err)
		regressed, err := compareResults(os.Stdout, a, b)
		exitOn(err)
		if regressed {
			os.Exit(1)
		}
	case *workload == "":
		set, err := runAll(o, *runs)
		if *out == "" {
			*out = filepath.Join(*outDir, "results.json")
		}
		if werr := writeJSON(*out, set); werr != nil && err == nil {
			err = werr
		}
		fmt.Printf("wrote %s\n", *out)
		exitOn(err)
	default:
		res, err := runWorkload(o)
		exitOn(err)
		printResult(os.Stdout, res)
		if *out != "" {
			exitOn(writeJSON(*out, resultSet{Runs: []runResult{res}}))
		}
		exitOn(printFinalLine(os.Stdout, res))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// resultSet is what -out writes and -compare reads: any number of runs of
// any of the workloads.
type resultSet struct {
	Runs []runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return set, fmt.Errorf("%s holds no runs", path)
	}
	return set, nil
}

// runAll runs every workload `runs` times, each run in a process of its
// own so one workload's heap and peak RSS never colour another's, and
// merges the results.
func runAll(o runOpts, runs int) (resultSet, error) {
	var set resultSet
	self, err := os.Executable()
	if err != nil {
		return set, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return set, err
	}
	tmp, err := os.CreateTemp(o.outDir, "run-*.json")
	if err != nil {
		return set, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())

	var failed []string
	for _, w := range workloadNames {
		for i := 0; i < runs; i++ {
			args := []string{"-workload", w, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-reps", fmt.Sprint(o.reps), "-outdir", o.outDir, "-out", tmp.Name()}
			if o.trace {
				args = append(args, "-trace", "1")
			}
			if o.z.Name == smokeSizing.Name {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			one, err := readResults(tmp.Name())
			if err != nil {
				return set, fmt.Errorf("%s run %d: %v (%v)", w, i, err, runErr)
			}
			set.Runs = append(set.Runs, one.Runs...)
			if runErr != nil {
				failed = append(failed, fmt.Sprintf("%s run %d: %v", w, i, runErr))
			}
		}
	}
	if len(failed) > 0 {
		return set, errors.New(strings.Join(failed, "; "))
	}
	return set, nil
}

func newHeader(o runOpts) header {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return header{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: gogc, GitRev: gitRev(), Seed: o.seed, Seconds: o.seconds, RepsFixed: o.reps, Sizing: o.z}
}

// gitRev names the commit measured: the revision the build stamped, else
// what git says about the working directory, else "unknown" (a driver's
// checkout is not a repository).
func gitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// printResult writes the human-readable report of one run.
func printResult(w io.Writer, r runResult) {
	h := r.Header
	fmt.Fprintf(w, "workload %s  trace=%v  seed=%d  seconds=%g  sizing=%s  repetitions=%d (failed %d)\n",
		r.Workload, r.Trace, h.Seed, h.Seconds, h.Sizing.Name, r.Attempted, r.Failed)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s GOGC=%s rev=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOGC, h.GitRev)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer()
	}
	fmt.Fprintf(w, "%-44s %16s %-6s %6s  %s\n", "metric (host clock unless sim.* count)", "value", "unit", "n", "bound")
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("+%g%%", d.Bound*100)
		}
		extra := ""
		if a, ok := r.ProbeAllocs[d.Name]; ok {
			extra = fmt.Sprintf("  %.2f allocs/op", a)
		}
		fmt.Fprintf(w, "%-44s %16.6g %-6s %6d  %s%s\n", d.Name, v.Value, v.Unit, v.N, bound, extra)
	}
	if !r.Trace {
		fmt.Fprintf(w, "simulated statistics of one repetition (digest %s; exact, not bounded):\n", r.Digest)
		names := make([]string, 0, len(r.Sim))
		for name := range r.Sim {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-42s %16.6g\n", name, r.Sim[name])
		}
	}
	if len(r.SelfTime) > 0 {
		fmt.Fprintf(w, "self time by span (traced repetitions; span minus what its children cover):\n")
		for _, s := range r.SelfTime {
			fmt.Fprintf(w, "  %-32s layer=%-12s n=%-7d total=%10.2f ms  self=%10.2f ms\n", s.Name, s.Layer, s.Count, s.TotalMS, s.SelfMS)
		}
		fmt.Fprintf(w, "trace written to %s (open in ui.perfetto.dev or chrome://tracing)\n", r.TraceFile)
	}
}

// printFinalLine writes the one-line JSON object a driver parses: exactly
// correct, attempted, failed and metrics, each metric a value and a unit.
func printFinalLine(w io.Writer, r runResult) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for name, v := range r.Metrics {
		metrics[name] = mv{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
