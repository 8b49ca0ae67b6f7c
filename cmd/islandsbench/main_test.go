package main

import (
	"bytes"
	"strings"
	"testing"
)

// Every usage error exits 2 with a message on stderr and nothing on stdout —
// including the flags of the retired -benchjson mode (benchmark/ replaced it)
// and an unknown id after a valid one, which must not run the valid one first.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		message string
	}{
		{"no experiment", nil, "usage: islandsbench"},
		{"unknown experiment", []string{"-quick", "nosuch"}, `unknown experiment "nosuch"`},
		{"unknown experiment after a known one", []string{"-quick", "fig7", "nosuch"}, `unknown experiment "nosuch"`},
		{"malformed -seed", []string{"-seed", "x", "fig7"}, "invalid value"},
		{"removed -benchjson", []string{"-benchjson"}, "flag provided but not defined: -benchjson"},
		{"removed -benchout", []string{"-benchout", "-"}, "flag provided but not defined: -benchout"},
		{"removed -rev", []string{"-rev", "abc"}, "flag provided but not defined: -rev"},
		{"removed -baseline", []string{"-baseline", "old.json"}, "flag provided but not defined: -baseline"},
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
	const want = `  fig2     Figure 2     Counter increments by thread placement
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
