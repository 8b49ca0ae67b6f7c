package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// Every usage error exits 2 with a one-line message on stderr and nothing on
// stdout: flags are validated before the first simulation runs, so none of
// these inputs reaches a panic or prints a partial table.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.trace")
	missing := filepath.Join(dir, "missing.trace")
	cases := []struct {
		name    string
		args    []string
		message string
	}{
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty: %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.message) {
				t.Errorf("stderr %q lacks %q", stderr.String(), c.message)
			}
			// The flag package reports an undefined flag itself, with usage.
			if c.name != "undefined flag" && c.name != "removed -verify" &&
				(!strings.HasPrefix(stderr.String(), "islandsadvisor: ") || strings.Count(stderr.String(), "\n") != 1) {
				t.Errorf("stderr is not one islandsadvisor: line: %q", stderr.String())
			}
		})
	}
}

// TestRecordThenAdvise drives the three trace modes end to end on a small
// micro trace: record writes the file, dump renders it, -trace ranks the
// candidates and recommends one.
func TestRecordThenAdvise(t *testing.T) {
	file := filepath.Join(t.TempDir(), "micro.trace")
	var stdout, stderr bytes.Buffer
	args := []string{"-record", file, "-workload", "micro", "-rows", "24000", "-write"}
	if code := run(args, &stdout, &stderr); code != 0 || !strings.HasPrefix(stdout.String(), "recorded "+file) {
		t.Fatalf("record: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-dump", file, "-maxrecords", "1"}, &stdout, &stderr); code != 0 ||
		!strings.Contains(stdout.String(), "micro rows=24000 quad-socket/4ISL") {
		t.Fatalf("dump: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-trace", file, "-sizes", "4,1", "-seeds", "1"}, &stdout, &stderr); code != 0 ||
		!strings.Contains(stdout.String(), "\nrecommended: quad-socket/") {
		t.Fatalf("advise: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestSyntheticSweep runs the default mode over two geometries with seed
// replicas: one ranked table with the model's columns and ±σ, one
// recommendation.
func TestSyntheticSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-geometry", "4:6:12,2:4:12", "-sizes", "1,4", "-seeds", "2", "-rows", "24000"}
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
