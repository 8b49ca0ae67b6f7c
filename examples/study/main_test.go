package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example: the seed-replicated island-size table, the
// fabric sweep and the latency-scale sweep, each with its rows.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== hypo16: read-10 microbenchmark on a hypothetical 16-socket machine (mean ±σ over 3 seeds)",
		"  config    0%    0% ±σ  20%    20% ±σ  50%    50% ±σ  100%    100% ±σ\n",
		"\n  64ISL ", "\n  1ISL ",
		"== fabrics: fabric sweep (per-socket islands, read-10)",
		"\n  full       (1.00 mean hops) ", "\n  ring       (4.27 mean hops) ",
		"== latscale: ring fabric across interconnect latency scales",
		"\n  0.5x wire latency ", "\n  2x wire latency ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
