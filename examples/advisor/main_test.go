package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRun runs the example: the advisor's verdict for each generated
// workload, then the trace loop — persisted, replayed in exact mode and
// ranked — leaving nothing behind in the temporary directory.
func TestRun(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"perfectly partitionable updates (p=0%, write=true, skew=0.00)\n",
		"\nrecommended: quad/24ISL (24 instances on quad)\n",
		"\nrecommended: quad/1ISL (1 instances on quad)\n",
		"\nrecommended: quad/4ISL (4 instances on quad) — one island per socket",
		"\npersisted: tpcc_quad_4isl.trace (",
		"(exact mode: bit-equal to the live run)\n",
		"\nrecommended: 4s6c12M/4ISL ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("temporary directory holds %v after the run (%v)", left, err)
	}
}
