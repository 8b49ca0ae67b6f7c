package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example: four islands on the quad-socket machine commit
// local and multisite transactions, and the breakdown bills execution time.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"deployment: 4ISL on quad-socket: 4 sockets x 6 cores",
		"\nthroughput: ",
		" multisite), ",
		"\nper-transaction time breakdown:\n",
		"\n  execution ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
