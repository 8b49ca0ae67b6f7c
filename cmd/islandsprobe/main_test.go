package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every usage error exits 2 with a message on stderr and nothing on stdout:
// flags are validated before the first simulation prints a fingerprint line.
func TestUsageErrors(t *testing.T) {
	// A store directory cannot be created beneath a regular file.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		message string
	}{
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
		})
	}
}

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
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if got := stdout.String(); got != want {
		t.Errorf("-list output:\n%s\nwant:\n%s", got, want)
	}
}
