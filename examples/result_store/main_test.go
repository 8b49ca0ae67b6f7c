package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example: the cold run archives all six cells, the warm
// run is served from the store with identical tables, and a second seed
// simulates only its own replicas.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cold run:  0 hits, 6 misses (6 cells archived)\n",
		"warm run:  6 hits, 0 misses, byte-identical tables: true\n",
		"seeds(2):  6 hits, 6 misses (only the new seed simulated)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
