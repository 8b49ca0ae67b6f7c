package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the example: on partitionable Payment, fine-grained
// shared-nothing beats shared-everything severalfold (the paper's ~4.5x),
// and shared-everything runs no distributed payment at 15% remote.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"TPC-C Payment, 24 warehouses on quad-socket",
		"\nperfectly partitionable (0% remote customers) — Figure 7:\n",
		"\nstandard mix (15% remote customers -> distributed payments):\n",
		"(+0% vs local-only, 0 prepares)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	m := regexp.MustCompile(`fine-grained vs shared-everything: ([0-9.]+)x`).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("no speedup line:\n%s", s)
	}
	if x, _ := strconv.ParseFloat(m[1], 64); x < 3 {
		t.Errorf("fine-grained vs shared-everything %vx, want >= 3x", x)
	}
}
