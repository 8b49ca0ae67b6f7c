package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example: eight windows, island 0 crashes once, the
// windows it is down in lose a quarter of availability, and coordinators
// abort on their deadline instead of hanging.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"island 0 crashes at 2ms for 2ms\n",
		"\nw0 ", "\nw7 ",
		"    0.750 ",
		"\ncrashes: 1   timeout aborts: ",
		"\nno coordinator ever hangs",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
}
