package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"islands/internal/core"
	"islands/internal/exec"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics explain and carry none. Lower is
// better for every end-to-end metric.
type metricDef struct {
	Name  string
	Unit  string
	Bound float64
}

// endToEnd is what the people who run sweeps see, all on the host clock.
// BENCHMARK.json repeats this table; the package's tests keep them equal.
var endToEnd = []metricDef{
	// Host seconds from repetition start to the start of the timed window.
	{"setup_s", "s", 0.25},
	// Host µs of the timed window per simulated transaction committed in it.
	{"txn_host_us_p50", "us", 0.15},
	{"txn_host_us_p90", "us", 0.25},
	// Whole-repetition wall-clock including Close: what one cell, or one
	// cold+warm sweep, costs the user.
	{"rep_host_ms_p50", "ms", 0.15},
	// Heap objects allocated in the timed window per committed transaction.
	{"allocs_per_txn", "count", 0.02},
	// VmHWM of the workload's process at exit.
	{"peak_rss_mb", "MB", 0.25},
}

// countMetrics are simulated statistics of the timed window: they repeat
// exactly, and a change that only speeds the simulator up must not move them.
var countMetrics = []metricDef{
	{Name: "sim.events_per_txn", Unit: "count"},
	{Name: "sim.pending_events", Unit: "count"},
	{Name: "mem.accesses_per_txn", Unit: "count"},
	{Name: "mem.l1_hit_ratio", Unit: "ratio"},
	{Name: "mem.cross_socket_ratio", Unit: "ratio"},
	{Name: "storage.bp_hit_ratio", Unit: "ratio"},
	{Name: "wal.log_bytes_per_txn", Unit: "B"},
	{Name: "ipc.msgs_per_txn", Unit: "count"},
	{Name: "ipc.cross_socket_share", Unit: "ratio"},
	{Name: "engine.abort_ratio", Unit: "ratio"},
	{Name: "engine.multisite_share", Unit: "ratio"},
	{Name: "engine.subwork_per_txn", Unit: "count"},
	{Name: "engine.prepares_per_txn", Unit: "count"},
}

// inRunMetrics are host times taken inside the traced repetitions.
var inRunMetrics = []metricDef{
	{Name: "sim.host_ns_per_event", Unit: "ns"},
	{Name: "workload.next_ns", Unit: "ns"},
	{Name: "workload.next_share", Unit: "ratio"},
	{Name: "core.build_ms", Unit: "ms"},
	{Name: "core.start_ms", Unit: "ms"},
	{Name: "core.warmup_ms", Unit: "ms"},
	{Name: "core.close_ms", Unit: "ms"},
	{Name: "harness.self_ms_per_sweep", Unit: "ms"},
	{Name: "harness.store_hit_us_p50", Unit: "us"},
	{Name: "sim.sharded_speedup", Unit: "ratio"},
	{Name: "sim.windows_per_rep", Unit: "count"},
	{Name: "sim.wakeups_per_rep", Unit: "count"},
	{Name: "trace_overhead_pct", Unit: "%"},
}

// perLayer lists every metric of a traced run, in report order.
func perLayer() []metricDef {
	out := append([]metricDef(nil), countMetrics...)
	for b := exec.Bucket(0); b < exec.NumBuckets; b++ {
		out = append(out, metricDef{Name: "exec.sim_us_per_txn." + b.String(), Unit: "us"})
	}
	out = append(out, inRunMetrics...)
	for _, p := range layerProbes("") {
		out = append(out, metricDef{Name: p.name, Unit: p.unit})
	}
	return out
}

// metricValue is one reported number. N is how many samples it summarizes.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// header records what makes two results comparable.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOGC       string  `json:"gogc"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	RepsFixed  int     `json:"reps_fixed"` // 0: repetitions fill Seconds
	Sizing     sizing  `json:"sizing"`
}

// runResult is one run of one workload.
type runResult struct {
	Header    header                 `json:"header"`
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Sim holds simulated statistics of one repetition. They are printed,
	// not bounded: a deliberate re-baseline of the simulated database must
	// not read as a performance regression.
	Sim         map[string]float64 `json:"sim"`
	Digest      string             `json:"digest"`
	ProbeAllocs map[string]float64 `json:"probe_allocs_per_op,omitempty"`
	SelfTime    []selfTime         `json:"self_time,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// runOpts selects one run.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	reps     int // > 0 fixes the repetition count instead of filling seconds
	trace    bool
	z        sizing
	outDir   string
}

// repSample is the part of a repetition every workload shares: what the
// end-to-end metrics are computed from.
type repSample struct {
	setup, window, total time.Duration
	txns, mallocs        uint64
	digest               string
	traced               bool
	cell                 *cellRep
	sweep                *sweepRep
}

// repOutcome is one attempted repetition.
type repOutcome struct {
	sample repSample
	err    error
}

// watchdogLimit bounds one repetition; a simulation that hangs cannot be
// stopped from outside, so the process reports the failure and exits.
const watchdogLimit = 60 * time.Second

// minReps keeps a time-bounded run from reporting percentiles of nothing
// on a host far slower than the one the sizing was chosen on.
const minReps = 4

// repSeed derives a repetition's workload seed. Repetitions 2k and 2k+1
// both run seed+k: every input is simulated twice, so the pair's digests
// check the simulator's determinism (and, in a traced run, that tracing
// does not perturb it), while a run as a whole samples ~40 inputs. One
// input per run would leave its medians hostage to that input: on
// tpcc_islands_mix the events per committed transaction alone move by
// +-5 % from seed to seed.
func repSeed(seed int64, rep int) int64 { return seed + int64(rep/2) }

// runWorkload executes one run and returns its result.
func runWorkload(o runOpts) (runResult, error) {
	res := runResult{Workload: o.workload, Trace: o.trace, Header: newHeader(o),
		Metrics: map[string]metricValue{}, Sim: map[string]float64{}}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return res, err
	}
	scratch, err := os.MkdirTemp(o.outDir, "scratch-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(scratch)

	var one func(rep int, tr *tracer, verify bool) (repSample, error)
	if spec, ok := cellSpecs(o.z)[o.workload]; ok {
		one = func(rep int, tr *tracer, verify bool) (repSample, error) {
			r, err := runCellRep(spec, o.z, repSeed(o.seed, rep), 1, rep, tr, verify)
			return repSample{setup: r.setup, window: r.window, total: r.total, txns: r.m.Committed,
				mallocs: r.mallocs, digest: r.digest, traced: tr != nil, cell: &r}, err
		}
	} else if o.workload == wlSweep {
		one = func(rep int, tr *tracer, _ bool) (repSample, error) {
			r, err := runSweepRep(o.z, repSeed(o.seed, rep), scratch, rep, tr)
			return repSample{setup: r.setup, window: r.cold, total: r.total, txns: r.sum.Committed,
				mallocs: r.mallocs, digest: r.digest, traced: tr != nil, sweep: &r}, err
		}
	} else {
		return res, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}

	begin := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.trace {
		tr = newTracer()
		if err := runProbes(o, scratch, &res); err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}

	// Repetitions come in pairs on one seed (repSeed). A traced run traces
	// the second of each pair, so the two halves of trace_overhead_pct see
	// the same inputs and the same drift of the host.
	//
	// The last repetition also checks atomicity. The check reads every page
	// of every table, which would otherwise be the process's memory peak, so
	// the high-water mark is taken just before it.
	var outcomes []repOutcome
	var peakRSS float64
	for i, last := 0, false; !last; i++ {
		if o.reps > 0 {
			last = i == o.reps-1
		} else {
			last = i%2 == 0 && i >= minReps && time.Since(begin) >= budget
		}
		if last {
			peakRSS = peakRSSMB()
		}
		var repTracer *tracer
		if o.trace && i%2 == 1 {
			repTracer = tr
		}
		// Collect the previous repetition's garbage outside every timing:
		// each repetition then starts from the same heap, as a cell does in
		// a fresh process.
		runtime.GC()
		wd := time.AfterFunc(watchdogLimit, func() {
			fmt.Fprintf(os.Stderr, "benchmark: %s repetition %d exceeded the %v watchdog\n", o.workload, i, watchdogLimit)
			os.RemoveAll(scratch)
			os.Exit(3)
		})
		s, err := one(i, repTracer, last)
		wd.Stop()
		outcomes = append(outcomes, repOutcome{s, err})
	}

	good, failed, reasons := tally(outcomes)
	res.Attempted, res.Failed = len(outcomes), failed
	res.Errors = append(res.Errors, reasons...)
	res.Correct = len(res.Errors) == 0 && len(good) > 0
	if len(good) == 0 {
		return res, nil
	}
	res.Digest = good[0].digest
	if c := good[0].cell; c != nil {
		res.Sim = simCounts(&c.m, c)
	} else {
		res.Sim = simCounts(&good[0].sweep.sum, nil)
	}

	var plain, traced []repSample
	for _, s := range good {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	if !o.trace {
		endToEndMetrics(plain, peakRSS, res.Metrics)
		return res, nil
	}

	for name, v := range res.Sim {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), N: 1}
	}
	inRun(plain, traced, res.Metrics)
	for _, d := range perLayer() {
		if _, ok := res.Metrics[d.Name]; !ok {
			// Not observable from outside on this workload (a study hides
			// its cells' kernels; a cell opens no store): reads 0.
			res.Metrics[d.Name] = metricValue{Unit: d.Unit}
		}
	}
	res.SelfTime = tr.summary()
	res.TraceFile = filepath.Join(o.outDir, "trace-"+o.workload+".json")
	if err := tr.writeChrome(res.TraceFile); err != nil {
		return res, err
	}
	return res, nil
}

// tally separates the repetitions that count from the ones that failed: a
// repetition fails when it returned an error (a panic, a failed invariant)
// or when its simulated digest differs from its pair's, which ran the same
// seed — the simulator is deterministic, so a differing digest is a bug,
// not noise.
func tally(outcomes []repOutcome) (good []repSample, failed int, reasons []string) {
	for i, o := range outcomes {
		switch {
		case o.err != nil:
			failed++
			reasons = append(reasons, o.err.Error())
		case i%2 == 1 && outcomes[i-1].err == nil && o.sample.digest != outcomes[i-1].sample.digest:
			failed++
			reasons = append(reasons, fmt.Sprintf("repetition %d simulated %s, repetition %d on the same seed simulated %s",
				i, o.sample.digest, i-1, outcomes[i-1].sample.digest))
		default:
			good = append(good, o.sample)
		}
	}
	return good, failed, reasons
}

// endToEndMetrics fills m with every end-to-end metric of the samples.
func endToEndMetrics(samples []repSample, peakRSS float64, m map[string]metricValue) {
	n := len(samples)
	setup := make([]float64, n)
	perTxn := make([]float64, n)
	total := make([]float64, n)
	allocs := make([]float64, n)
	for i, s := range samples {
		setup[i] = s.setup.Seconds()
		perTxn[i] = us(s.window) / float64(s.txns)
		total[i] = ms(s.total)
		allocs[i] = float64(s.mallocs) / float64(s.txns)
	}
	m["setup_s"] = metricValue{median(setup), "s", n}
	m["txn_host_us_p50"] = metricValue{median(perTxn), "us", n}
	m["txn_host_us_p90"] = metricValue{percentile(perTxn, 90), "us", n}
	m["rep_host_ms_p50"] = metricValue{median(total), "ms", n}
	m["allocs_per_txn"] = metricValue{median(allocs), "count", n}
	m["peak_rss_mb"] = metricValue{peakRSS, "MB", 1}
}

// simCounts derives the simulated per-layer counts of one window. c carries
// what only a directly driven cell exposes (kernel, WAL and buffer-pool
// counters); it is nil for the sweep, whose cells run inside the harness.
func simCounts(m *core.Measurement, c *cellRep) map[string]float64 {
	txns := float64(m.Committed)
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out := map[string]float64{
		"mem.accesses_per_txn":    float64(m.Mem.Accesses) / txns,
		"mem.l1_hit_ratio":        ratio(m.Mem.L1Hits, m.Mem.Accesses),
		"mem.cross_socket_ratio":  ratio(m.Mem.C2CCross+m.Mem.DRAMRemote, m.Mem.Accesses),
		"ipc.msgs_per_txn":        float64(m.Msgs) / txns,
		"ipc.cross_socket_share":  ratio(m.CrossMsgs, m.Msgs),
		"engine.abort_ratio":      ratio(m.Aborted, m.Committed+m.Aborted),
		"engine.multisite_share":  ratio(m.Multisite, m.Committed),
		"engine.subwork_per_txn":  float64(m.SubWork) / txns,
		"engine.prepares_per_txn": float64(m.Prepares) / txns,
	}
	for b := exec.Bucket(0); b < exec.NumBuckets; b++ {
		out["exec.sim_us_per_txn."+b.String()] = float64(m.Breakdown[b]) / 1e3 / txns
	}
	if c != nil {
		out["sim.events_per_txn"] = float64(c.events) / txns
		out["sim.pending_events"] = float64(c.pending)
		out["storage.bp_hit_ratio"] = ratio(c.bpHits, c.bpHits+c.bpMisses)
		out["wal.log_bytes_per_txn"] = float64(c.walBytes) / txns
	}
	return out
}

var perLayerUnits = sync.OnceValue(func() map[string]string {
	units := map[string]string{}
	for _, d := range perLayer() {
		units[d.Name] = d.Unit
	}
	return units
})

func unitOf(name string) string { return perLayerUnits()[name] }

// inRun fills m with the host-timed per-layer metrics of the traced
// repetitions, and the tracing overhead against the untraced ones.
func inRun(plain, traced []repSample, m map[string]metricValue) {
	perTxn := func(samples []repSample) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = us(s.window) / float64(s.txns)
		}
		return out
	}
	if len(plain) > 0 && len(traced) > 0 {
		m["trace_overhead_pct"] = metricValue{100 * (median(perTxn(traced))/median(perTxn(plain)) - 1), "%", len(traced)}
	}
	var perEvent, nextNS, nextShare, build, start, warm, closeMS, self, hit []float64
	for _, s := range traced {
		if c := s.cell; c != nil {
			perEvent = append(perEvent, float64(c.window.Nanoseconds())/float64(c.events))
			nextNS = append(nextNS, float64(c.nextTime.Nanoseconds())/float64(c.nextCalls))
			nextShare = append(nextShare, float64(c.nextTime)/float64(c.window))
			build = append(build, ms(c.build))
			start = append(start, ms(c.start))
			warm = append(warm, ms(c.warmup))
			closeMS = append(closeMS, ms(c.close))
		}
		if w := s.sweep; w != nil {
			self = append(self, ms(w.self))
			hit = append(hit, us(w.warm)/float64(w.cells))
		}
	}
	for name, v := range map[string][]float64{
		"sim.host_ns_per_event": perEvent, "workload.next_ns": nextNS, "workload.next_share": nextShare,
		"core.build_ms": build, "core.start_ms": start, "core.warmup_ms": warm, "core.close_ms": closeMS,
		"harness.self_ms_per_sweep": self, "harness.store_hit_us_p50": hit,
	} {
		if len(v) > 0 {
			m[name] = metricValue{median(v), unitOf(name), len(v)}
		}
	}
}

// runProbes measures every workload-independent per-layer metric: the
// fixed-size layer probes, the sharded-kernel probe, and — for the cell
// workloads, which open no store — three repetitions of the sweep for the
// harness metrics.
func runProbes(o runOpts, scratch string, res *runResult) error {
	m := res.Metrics
	res.ProbeAllocs = map[string]float64{}
	for _, p := range layerProbes(scratch) {
		v := measureProbe(p, o.z)
		m[p.name] = metricValue{v.perOp, p.unit, o.z.ProbeRounds}
		res.ProbeAllocs[p.name] = v.allocs
	}
	speedup, windows, wakeups, err := shardedProbe(o.z, o.seed, o.z.ProbeRounds)
	if err != nil {
		return err
	}
	m["sim.sharded_speedup"] = metricValue{speedup, "ratio", o.z.ProbeRounds}
	m["sim.windows_per_rep"] = metricValue{windows, "count", 1}
	m["sim.wakeups_per_rep"] = metricValue{wakeups, "count", 1}
	if o.workload == wlSweep {
		return nil
	}
	var reps []repSample
	for i := 0; i < 3; i++ {
		r, err := runSweepRep(o.z, o.seed, scratch, i, nil)
		if err != nil {
			return fmt.Errorf("harness probe: %w", err)
		}
		reps = append(reps, repSample{sweep: &r, window: r.cold, txns: r.sum.Committed})
	}
	inRun(nil, reps, m)
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
