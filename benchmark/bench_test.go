package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndSpread(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Quartiles 2 and 4 around a median of 3.
	if got := iqrShare(v); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("iqrShare = %v, want 2/3", got)
	}
	if got := iqrShare([]float64{1, 2, 3}); got != 0 {
		t.Errorf("iqrShare of three values = %v, want 0 (no quartiles)", got)
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	a := simDigest{Committed: 10, Events: 99, PerInstance: []uint64{4, 6}}
	b := a
	b.PerInstance = []uint64{4, 6}
	if digestOf(a) != digestOf(b) {
		t.Error("equal statistics digest differently")
	}
	b.PerInstance[1]++
	if digestOf(a) == digestOf(b) {
		t.Error("a moved per-instance commit count left the digest unchanged")
	}
	c := a
	c.Breakdown[3]++
	if digestOf(a) == digestOf(c) {
		t.Error("a moved breakdown bucket left the digest unchanged")
	}
}

// A repetition whose digest differs from its pair's, and one that returned
// an error, both count as failed; the rest are the samples. Different pairs
// run different seeds and may differ.
func TestTallyCountsPerturbedDigest(t *testing.T) {
	ok := func(d string) repOutcome { return repOutcome{sample: repSample{digest: d}} }
	outcomes := []repOutcome{ok("aa"), ok("aa"), ok("bb"), ok("bx"), {err: errors.New("panicked")}, ok("cc")}
	good, failed, reasons := tally(outcomes)
	if len(good) != 4 || failed != 2 || len(reasons) != 2 {
		t.Fatalf("tally = %d good, %d failed, %d reasons; want 4, 2, 2", len(good), failed, len(reasons))
	}
	if !strings.Contains(reasons[0], "repetition 3") {
		t.Errorf("first reason %q does not name the perturbed repetition", reasons[0])
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{epoch: time.Unix(0, 0)}
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("harness.Study.Run", at(0), at(100), -1, 0, 0)
	tr.add("harness.Cell.Run", at(10), at(60), root, 0, 1)
	tr.add("harness.Cell.Run", at(40), at(90), root, 0, 2) // overlaps the first
	self := selfOf(tr.spans)
	if self[root] != 20*time.Millisecond {
		t.Errorf("self time of the parent = %v, want 20ms (100 minus the 80 its children cover)", self[root])
	}
	sum := tr.summary()
	if len(sum) != 2 || sum[0].Name != "harness.Cell.Run" || sum[0].Count != 2 || sum[0].Layer != "harness" {
		t.Errorf("summary = %+v", sum)
	}
	if (*tracer)(nil).add("x", at(0), at(1), -1, 0, 0) != -1 {
		t.Error("a nil tracer recorded a span")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is a copy of this package's metric tables; every metric it
// names must come out of a smoke run with a unit, and the controls must
// read as designed.
func TestSmokeRunsReportEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(file, want) {
		t.Errorf("BENCHMARK.json differs from the tables in this package; regenerate it with `go run ./benchmark -spec`")
	}

	out := t.TempDir()
	run := func(workload string, trace bool) runResult {
		t.Helper()
		res, err := runWorkload(runOpts{workload: workload, seed: 42, reps: 2, trace: trace, z: smokeSizing, outDir: out})
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d errors=%v", workload, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		return res
	}

	plain := map[string]runResult{}
	for _, w := range file.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q with a reason of %d characters", w.Name, len(w.Why))
		}
		res := run(w.Name, false)
		plain[w.Name] = res
		if len(res.Metrics) != len(file.EndToEnd) {
			t.Errorf("%s reports %d end-to-end metrics, BENCHMARK.json names %d", w.Name, len(res.Metrics), len(file.EndToEnd))
		}
		for _, d := range file.EndToEnd {
			v, ok := res.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", w.Name, d.Name, v, ok, d.Unit)
			}
		}
	}

	traced := run(wlScale64, true)
	if len(traced.Metrics) != len(file.PerLayer) {
		t.Errorf("traced run reports %d per-layer metrics, BENCHMARK.json names %d", len(traced.Metrics), len(file.PerLayer))
	}
	for _, d := range file.PerLayer {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
		if v, ok := traced.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Unit == "" {
			t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
		}
	}
	for _, d := range file.EndToEnd {
		if !nameRE.MatchString(d.Name) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", d)
		}
	}
	if _, err := os.Stat(traced.TraceFile); err != nil {
		t.Errorf("traced run left no trace file: %v", err)
	}

	// The fast path is the control: it sends no message, logs nothing and
	// spends no simulated time locking, latching or communicating; the
	// distributed update workload does all of it.
	controls := []string{"ipc.msgs_per_txn", "wal.log_bytes_per_txn", "exec.sim_us_per_txn.locking",
		"exec.sim_us_per_txn.latching", "exec.sim_us_per_txn.communication"}
	for _, name := range controls {
		if v := plain[wlFineLocalRead].Sim[name]; v != 0 {
			t.Errorf("%s on %s = %v, want 0", name, wlFineLocalRead, v)
		}
		if v := plain[wlScale64].Sim[name]; !(v > 0) {
			t.Errorf("%s on %s = %v, want > 0", name, wlScale64, v)
		}
	}
	if v := plain[wlTPCC].Sim["engine.abort_ratio"]; !(v > 0) {
		t.Errorf("engine.abort_ratio on %s = %v, want > 0", wlTPCC, v)
	}

	// The driver's line: exactly four keys, every metric a value and a unit.
	var buf bytes.Buffer
	if err := printFinalLine(&buf, plain[wlSweep]); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil || len(line) != 4 {
		t.Errorf("final line %s: %v", buf.String(), err)
	}

	// Temporary stores and scratch directories are gone.
	left, err := filepath.Glob(filepath.Join(out, "scratch-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(seed int64, p50 ...float64) resultSet {
		var s resultSet
		for _, v := range p50 {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.Name] = metricValue{Value: 100, Unit: d.Unit}
			}
			m["txn_host_us_p50"] = metricValue{Value: v, Unit: "us"}
			s.Runs = append(s.Runs, runResult{Workload: wlTPCC, Correct: true, Digest: "d",
				Header: header{Seed: seed, Seconds: 25, Sizing: fullSizing}, Metrics: m})
		}
		return s
	}
	base := set(42, 100, 100.5, 99.5, 100.2, 99.8)
	cases := []struct {
		name      string
		b         resultSet
		verdict   string
		regressed bool
	}{
		{"within the bound", set(42, 104, 104.5, 103.5, 104, 104), "ok", false},
		{"beyond the bound", set(42, 120, 121, 119, 120, 120), "regressed", true},
		{"spread wider than the bound", set(42, 80, 140, 100, 160, 90), "unresolved", false},
		{"noisy but better on every run", set(42, 40, 80, 60, 90, 50), "ok", false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compareResults(&out, base, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var row string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "txn_host_us_p50") {
				row = l
			}
		}
		if regressed != c.regressed || !strings.Contains(row, c.verdict+" (") {
			t.Errorf("%s: regressed=%v, row %q; want %v and %q", c.name, regressed, row, c.regressed, c.verdict)
		}
	}
	if _, err := compareResults(&bytes.Buffer{}, base, set(43, 100)); err == nil || !strings.Contains(err.Error(), "seeds differ") {
		t.Errorf("comparing different seeds: err = %v, want a refusal", err)
	}
	other := set(42, 100)
	other.Runs[0].Header.Sizing = smokeSizing
	if _, err := compareResults(&bytes.Buffer{}, base, other); err == nil || !strings.Contains(err.Error(), "windows differ") {
		t.Errorf("comparing different windows: err = %v, want a refusal", err)
	}
}
