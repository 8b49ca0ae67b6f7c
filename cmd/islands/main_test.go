package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// usageCase is one command line that must exit 2 with message on stderr
// and nothing on stdout.
type usageCase struct {
	name    string
	args    []string
	message string
}

// checkUsageErrors runs each case as "islands <cmd> <args>". Flags are
// validated before the first simulation runs, so none of these inputs
// reaches a panic or prints a partial table. With oneLine, a message of
// ours must be the single "islands <cmd>: " line; the flag package reports
// an undefined flag itself, with usage.
func checkUsageErrors(t *testing.T, cmd string, oneLine bool, cases []usageCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{cmd}, c.args...), &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty: %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.message) {
				t.Errorf("stderr %q lacks %q", stderr.String(), c.message)
			}
			if oneLine && !strings.Contains(c.message, "flag provided but not defined") &&
				(!strings.HasPrefix(stderr.String(), "islands "+cmd+": ") || strings.Count(stderr.String(), "\n") != 1) {
				t.Errorf("stderr is not one islands %s: line: %q", cmd, stderr.String())
			}
		})
	}
}

// No subcommand, or one that does not exist, prints the usage.
func TestNoOrUnknownCommand(t *testing.T) {
	for _, args := range [][]string{nil, {"bench"}, {"-seed", "1"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 ||
			!strings.Contains(stderr.String(), "usage: islands <command>") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
		}
	}
}

// A subcommand refuses a flag that only another subcommand takes.
func TestForeignFlag(t *testing.T) {
	for _, args := range [][]string{
		{"topo", "-seed", "1"},
		{"run", "-store", "d"},
		{"run", "-seeds", "2", "fig7"},
		{"run", "-geometry", "4:6:8", "fig7"},
		{"topo", "-full"},
		{"topo", "-list"},
		{"advise", "-list"},
		{"advise", "-parallel", "2"},
		{"probe", "-rows", "24000"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 ||
			!strings.Contains(stderr.String(), "flag provided but not defined: "+args[1]) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
		}
	}
}

// Every usage error of "islands run" — including the flags of the retired
// -benchjson mode (benchmark/ replaced it), the retired -quick (quick is
// the default, -full the switch) and an unknown id after a valid one, which
// must not run the valid one first.
func TestRunUsageErrors(t *testing.T) {
	checkUsageErrors(t, "run", false, []usageCase{
		{"no experiment", nil, "usage: islands run"},
		{"unknown experiment", []string{"nosuch"}, `unknown experiment "nosuch"`},
		{"unknown experiment after a known one", []string{"fig7", "nosuch"}, `unknown experiment "nosuch"`},
		{"malformed -seed", []string{"-seed", "x", "fig7"}, "invalid value"},
		{"removed -quick", []string{"-quick", "fig7"}, "flag provided but not defined: -quick"},
		{"removed -benchjson", []string{"-benchjson"}, "flag provided but not defined: -benchjson"},
		{"removed -benchout", []string{"-benchout", "-"}, "flag provided but not defined: -benchout"},
		{"removed -rev", []string{"-rev", "abc"}, "flag provided but not defined: -rev"},
		{"removed -baseline", []string{"-baseline", "old.json"}, "flag provided but not defined: -baseline"},
	})
}

func TestProbeUsageErrors(t *testing.T) {
	// A store directory cannot be created beneath a regular file.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	checkUsageErrors(t, "probe", true, []usageCase{
		{"unknown -only id", []string{"-only", "fig7,nosuch"}, `unknown experiment "nosuch"`},
		{"empty -only list", []string{"-only", ","}, "no experiment ids"},
		{"-seeds 0", []string{"-seeds", "0"}, "-seeds must be >= 1"},
		{"-latscale without -geometry", []string{"-latscale", "0.5,2"}, "give -geometry too"},
		{"malformed -geometry", []string{"-geometry", "16:x:12"}, `geometry "16:x:12"`},
		{"-geometry wider than the sharer mask", []string{"-geometry", "17:2:12"}, "supports at most 16"},
		{"-geometry with an unknown fabric", []string{"-geometry", "4:4:12:moebius"}, `unknown fabric "moebius"`},
		{"malformed -latscale", []string{"-geometry", "4:4:12", "-latscale", "fast"}, `latency scale "fast"`},
		{"-latscale NaN", []string{"-geometry", "4:6:8", "-latscale", "NaN"}, `latency scale "NaN"`},
		{"-latscale Inf", []string{"-geometry", "4:6:8", "-latscale", "Inf"}, `latency scale "Inf"`},
		{"-latscale overflowing sim.Time", []string{"-geometry", "4:6:8", "-latscale", "1e300"}, `latency scale "1e300"`},
		{"unopenable -store", []string{"-store", filepath.Join(file, "store")}, "not a directory"},
		{"removed -baseline", []string{"-baseline", "times.txt"}, "flag provided but not defined: -baseline"},
		{"removed -shards", []string{"-shards", "4"}, "flag provided but not defined: -shards"},
	})
}

func TestAdviseUsageErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.trace")
	missing := filepath.Join(dir, "missing.trace")
	checkUsageErrors(t, "advise", true, []usageCase{
		{"-rows 0", []string{"-rows", "0"}, "-rows must be >= 1"},
		{"-rowstxn 0", []string{"-rowstxn", "0"}, "-rowstxn must be >= 1"},
		{"-multisite above 1", []string{"-multisite", "1.5"}, "-multisite must be within 0..1"},
		{"-multisite NaN", []string{"-multisite", "NaN"}, "-multisite must be within 0..1"},
		{"negative -skew", []string{"-skew", "-0.5"}, "-skew must be >= 0"},
		{"-warehouses 0", []string{"-record", out, "-warehouses", "0"}, "-warehouses must be >= 1"},
		{"-seeds 0", []string{"-trace", missing, "-seeds", "0"}, "-seeds must be >= 1"},
		{"unknown -workload", []string{"-record", out, "-workload", "ycsb"}, `unknown -workload "ycsb"`},
		{"unknown -machine", []string{"-machine", "hexa"}, `unknown machine "hexa"`},
		{"malformed -geometry", []string{"-geometry", "4:x:12"}, `geometry "4:x:12"`},
		{"-geometry wider than the sharer mask", []string{"-geometry", "17:2:12"}, "supports at most 16"},
		{"-instances not dividing the cores", []string{"-record", out, "-instances", "5"}, "does not divide the machine's 24 cores"},
		{"fewer warehouses than islands", []string{"-record", out, "-warehouses", "1"}, "cannot be spread over 4 islands"},
		{"fewer rows than islands", []string{"-record", out, "-workload", "micro", "-rows", "3"}, "cannot be spread over 4 islands"},
		{"fewer rows than cores", []string{"-rows", "5"}, "5 rows cannot be spread over the 8 islands of quad-socket/8ISL"},
		{"multi-geometry -record", []string{"-record", out, "-geometry", "4:6:12,8:10:30"}, "takes one -geometry (got 2)"},
		{"-trace of a missing file", []string{"-trace", missing}, "no such file"},
		{"-dump of a missing file", []string{"-dump", missing}, "no such file"},
		{"malformed -sizes", []string{"-trace", missing, "-sizes", "4,x"}, `-sizes "4,x"`},
		{"malformed -latscale", []string{"-trace", missing, "-geometry", "4:6:8", "-latscale", "fast"}, `latency scale "fast"`},
		{"-latscale NaN", []string{"-geometry", "4:6:8", "-latscale", "NaN"}, `latency scale "NaN"`},
		{"-latscale Inf", []string{"-geometry", "4:6:8", "-latscale", "Inf"}, `latency scale "Inf"`},
		{"-latscale overflowing sim.Time", []string{"-geometry", "4:6:8", "-latscale", "1e300"}, `latency scale "1e300"`},
		{"-latscale without -geometry", []string{"-latscale", "2"}, "give -geometry too"},
		{"no -sizes dividing the machine", []string{"-sizes", "5,7"}, "no island size divides"},
		{"removed -verify", []string{"-verify=false"}, "flag provided but not defined: -verify"},
		{"undefined flag", []string{"-nosuch"}, "flag provided but not defined: -nosuch"},
	})
}

// An undefined flag or a stray argument to "islands topo" exits 2 with
// nothing on stdout.
func TestTopoUsageErrors(t *testing.T) {
	checkUsageErrors(t, "topo", false, []usageCase{
		{"undefined flag", []string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{"stray argument", []string{"quad"}, `islands topo: unexpected argument "quad"`},
	})
}

// run and probe print one listing: the testbed machines, then every
// registered experiment.
func TestList(t *testing.T) {
	const want = `machines:
  quad-socket  4s x 6c  interconnect=full       mean hops 1.00
  octo-socket  8s x 10c  interconnect=hypercube3 mean hops 1.71
experiments:
  fig2     Figure 2     Counter increments by thread placement
  table1   Table 1      Counter throughput when increasing counters
  fig3     Figure 3     TPC-C Payment by thread placement (4 workers)
  fig6     Figure 6     IPC mechanism throughput
  fig7     Figure 7     TPC-C Payment, perfectly partitionable
  fig8     Figure 8     Microarchitectural data per deployment
  fabric   Sec 8 (what-if fabrics) Socket-fabric sweep on a 16-socket machine (per-socket islands)
  faults   robustness (no paper figure) Fault injection: island crashes and gray failures
  fig12    Figure 12    Scaling with active cores (20% multisite)
  fig13    Figure 13    Throughput under skewed access
  fig14    Figure 14    Throughput vs database size (2 rows/txn)
  fig9     Figure 9     Throughput vs fraction of multisite transactions
  fig10    Figure 10    Cost per transaction vs rows accessed
  fig11    Figure 11    Time breakdown per transaction (4ISL, 4 rows)
  tpcc     Figures 7/9 (full mix) Full TPC-C mix across island configurations
  trace    trace subsystem Trace record/replay across island configurations
`
	for _, cmd := range []string{"run", "probe"} {
		t.Run(cmd, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{cmd, "-list"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr.String())
			}
			if got := stdout.String(); got != want {
				t.Errorf("-list output:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestTopo is the smoke test of "islands topo": both testbed machines, each
// with its hop matrix and island partitions, on stdout; exit 0 and a silent
// stderr.
func TestTopo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"topo"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, want := range []string{
		"quad-socket: 4 sockets x 6 cores",
		"octo-socket: 8 sockets x 10 cores",
		"  hop matrix:\n    0 1 1 1 \n",
		"    0 1 1 2 1 2 2 3 \n",
		"     24ISL:  1 cores/instance, 1 socket(s) each",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestRecordThenAdvise drives the three trace modes of "islands advise" end
// to end on a small micro trace: record writes the file, dump renders it,
// -trace ranks the candidates and recommends one.
func TestRecordThenAdvise(t *testing.T) {
	file := filepath.Join(t.TempDir(), "micro.trace")
	var stdout, stderr bytes.Buffer
	args := []string{"advise", "-record", file, "-workload", "micro", "-rows", "24000", "-write"}
	if code := run(args, &stdout, &stderr); code != 0 || !strings.HasPrefix(stdout.String(), "recorded "+file) {
		t.Fatalf("record: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"advise", "-dump", file, "-maxrecords", "1"}, &stdout, &stderr); code != 0 ||
		!strings.Contains(stdout.String(), "micro rows=24000 quad-socket/4ISL") {
		t.Fatalf("dump: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"advise", "-trace", file, "-sizes", "4,1", "-seeds", "1"}, &stdout, &stderr); code != 0 ||
		!strings.Contains(stdout.String(), "\nrecommended: quad-socket/") {
		t.Fatalf("advise: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestSyntheticSweep runs the default mode of "islands advise" over two
// geometries with seed replicas: one ranked table with the model's columns
// and ±σ, one recommendation.
func TestSyntheticSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"advise", "-geometry", "4:6:12,2:4:12", "-sizes", "1,4", "-seeds", "2", "-rows", "24000"}
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"T_local", "T_distr", "predicted", "measured", "±σ",
		"\n4s6c12M/4ISL ", "\n4s6c12M/1ISL ", "\n2s4c12M/4ISL ", "\n2s4c12M/1ISL "} {
		if strings.Count(out, want) != 1 {
			t.Errorf("output has %d of %q, want 1:\n%s", strings.Count(out, want), want, out)
		}
	}
	if strings.Count(out, "\nrecommended: ") != 1 {
		t.Errorf("no single recommendation:\n%s", out)
	}
}
