package topoprobe

import (
	"bytes"
	"strings"
	"testing"
)

// TestProbe is the smoke test: both testbed machines, each with its hop
// matrix and island partitions, on stdout; exit 0 and a silent stderr.
func TestProbe(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Run(nil, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
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

// TestUsageErrors: an undefined flag or a stray argument exits 2 with
// nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-nosuch"}, {"quad"}} {
		var stdout, stderr bytes.Buffer
		if code := Run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
		}
	}
}
