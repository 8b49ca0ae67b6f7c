// Package topoprobe is the body of "islands topo": it prints the built-in
// machine models' geometry, hop matrices, transfer costs and the island
// partitions each instance count produces — what "hardware islands" means
// for a deployment. It is a library, not a command: cmd/islands is the one
// binary, and its topo subcommand calls Run.
package topoprobe

import (
	"flag"
	"fmt"
	"io"

	"islands/internal/topology"
)

// Run is "islands topo" with the arguments after the subcommand's name: it
// takes no flag and no argument, and returns the exit status (2 for a usage
// error, which leaves stdout empty).
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("islands topo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "islands topo: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	for _, m := range []*topology.Machine{topology.QuadSocket(), topology.OctoSocket()} {
		printMachine(stdout, m)
		fmt.Fprintln(stdout)
	}
	return 0
}

func printMachine(w io.Writer, m *topology.Machine) {
	fmt.Fprintln(w, m)
	fmt.Fprintf(w, "  interconnect: %s, mean socket distance %.2f hops\n", m.Interconnect.Name, m.MeanHops())

	fmt.Fprint(w, "  hop matrix:\n")
	for a := 0; a < m.SocketCount; a++ {
		fmt.Fprint(w, "    ")
		for b := 0; b < m.SocketCount; b++ {
			fmt.Fprintf(w, "%d ", m.Hops(topology.SocketID(a), topology.SocketID(b)))
		}
		fmt.Fprintln(w)
	}

	c0 := topology.CoreID(0)
	samesock := topology.CoreID(1)
	remote := topology.CoreID(m.NumCores() - 1)
	fmt.Fprintf(w, "  cache-line transfer: same core %v | same socket %v | farthest socket %v\n",
		m.TransferCost(c0, c0), m.TransferCost(c0, samesock), m.TransferCost(remote, c0))
	fmt.Fprintf(w, "  DRAM: local %v | farthest remote %v\n",
		m.DRAMCost(c0, 0), m.DRAMCost(c0, m.SocketOf(remote)))

	fmt.Fprintln(w, "  island partitions:")
	for _, n := range []int{1, 2, m.SocketCount, m.NumCores()} {
		if m.NumCores()%n != 0 {
			continue
		}
		parts := topology.IslandPartition(m, n)
		spans := topology.SocketsSpanned(m, parts[0])
		fmt.Fprintf(w, "    %3dISL: %2d cores/instance, %d socket(s) each\n",
			n, len(parts[0]), spans)
	}
}
