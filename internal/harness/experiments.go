package harness

import (
	"fmt"

	"islands/internal/exec"
	"islands/internal/ipc"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// stdRows is the paper's default dataset: 240,000 rows (~60 MB).
const stdRows = 240000

// fig3: TPC-C Payment with 4 worker threads on the quad-socket machine,
// varying thread placement: Spread / Group / Mix / OS. All cells force the
// full measurement window: with only 4 workers the experiment is cheap, and
// the 20-30% placement gap must be measured above the noise. Enough
// warehouses that warehouse-row contention (which is placement-independent)
// does not mask the topology effect.
func studyFig3(opt Options) *Study {
	seeds := 5
	if opt.Quick {
		seeds = 3
	}
	const fig3Warehouses = 16

	tab := NewTable("Payment throughput by placement", "KTps",
		"placement", []string{"spread", "group", "mix", "os"}, "", []string{"mean", "stddev"})
	p := &Study{
		ID: "fig3", Title: "TPC-C Payment by thread placement (4 workers)", Ref: "Figure 3",
		Notes: []string{
			"paper: grouping all threads on one socket is 20-30% faster than spread/mix/OS",
		},
		Tables: []*Table{tab},
	}

	fixed := []struct {
		name  string
		cores func(m *topology.Machine) []topology.CoreID
	}{
		{"spread", func(m *topology.Machine) []topology.CoreID { return topology.SpreadPlacement(m, 4).Cores }},
		{"group", func(m *topology.Machine) []topology.CoreID { return topology.GroupPlacement(m, 4, 0).Cores }},
		{"mix", func(m *topology.Machine) []topology.CoreID { return topology.MixPlacement(m, 4, 2).Cores }},
	}
	for i, pl := range fixed {
		p.Cells = append(p.Cells, TPCCCell("fig3/"+pl.name, TPCCSpec{
			Machine: topology.QuadSocket, Instances: 1, Warehouses: fig3Warehouses,
			Mix: workload.PaymentOnly(), RemotePct: 0.15, ForceFull: true,
			Placement: func(m *topology.Machine, _ Options) [][]topology.CoreID {
				return [][]topology.CoreID{pl.cores(m)}
			},
		}, TPSEmit(0, i, 0)))
	}

	osStart := len(p.Cells)
	for s := 0; s < seeds; s++ {
		p.Cells = append(p.Cells, TPCCCell(fmt.Sprintf("fig3/os/seed%d", s), TPCCSpec{
			Machine: topology.QuadSocket, Instances: 1, Warehouses: fig3Warehouses,
			Mix: workload.PaymentOnly(), RemotePct: 0.15, ForceFull: true, SeedDelta: int64(s) * 104729,
			Placement: func(m *topology.Machine, o Options) [][]topology.CoreID {
				return [][]topology.CoreID{topology.OSPlacement(m, 4, randFor(o.Seed)).Cores}
			},
		}))
	}
	p.Finalize = func(res *Result, metrics []Metrics) {
		var rates []float64
		for _, x := range metrics[osStart : osStart+seeds] {
			rates = append(rates, x.M.ThroughputTPS/1e3)
		}
		mean, std := meanStd(rates)
		res.Tables[0].Set(3, 0, mean)
		res.Tables[0].Set(3, 1, std)
	}
	return p
}

// fig6: message throughput of IPC mechanisms, same vs different socket.
func studyFig6(opt Options) *Study {
	rounds := 2000
	if opt.Quick {
		rounds = 300
	}
	mechs := ipc.Mechanisms()
	rows := axis("%s", mechs)
	tab := NewTable("message throughput", "Kmsgs/s",
		"mechanism", rows, "endpoint sockets", []string{"same", "different"})
	p := &Study{
		ID: "fig6", Title: "IPC mechanism throughput", Ref: "Figure 6",
		Notes:  []string{"unix domain sockets are the fastest; cross-socket is always slower"},
		Tables: []*Table{tab},
	}
	peers := []struct {
		name string
		core topology.CoreID
	}{{"same", 1}, {"different", 23}}
	for i, mech := range mechs {
		for j, peer := range peers {
			p.Cells = append(p.Cells, ScalarCell(
				fmt.Sprintf("fig6/%s/%s", mech, peer.name),
				func(Options) float64 {
					return pingPongRate(topology.QuadSocket(), mech, 0, peer.core, rounds) / 1e3
				}, ValueEmit(0, i, j)))
		}
	}
	return p
}

func pingPongRate(m *topology.Machine, mech ipc.Mechanism, a, b topology.CoreID, rounds int) float64 {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(m)
	net := ipc.NewNetwork[int](k, m, mech)
	ea, eb := net.NewEndpoint(a), net.NewEndpoint(b)
	var end sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		ctx := exec.New(p, a, model, nil)
		for i := 0; i < rounds; i++ {
			ea.Send(ctx, eb, i)
			ea.Recv(ctx)
		}
		end = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		ctx := exec.New(p, b, model, nil)
		for i := 0; i < rounds; i++ {
			eb.Send(ctx, ea, eb.Recv(ctx))
		}
	})
	k.Run()
	return float64(2*rounds) / end.Seconds()
}

// fig7: TPC-C Payment, perfectly partitionable (all local): fine-grained
// shared-nothing vs shared-everything.
func studyFig7(Options) *Study {
	tab := NewTable("Payment throughput, local only", "KTps",
		"config", []string{"24ISL (fine-grained SN)", "1ISL (shared-everything)"}, "", []string{"KTps", "vs SE"})
	p := &Study{
		ID: "fig7", Title: "TPC-C Payment, perfectly partitionable", Ref: "Figure 7",
		Notes:  []string{"paper: fine-grained shared-nothing is ~4.5x shared-everything"},
		Tables: []*Table{tab},
	}
	for i, instances := range []int{24, 1} {
		p.Cells = append(p.Cells, TPCCCell(fmt.Sprintf("fig7/%dISL", instances), TPCCSpec{
			Machine: topology.QuadSocket, Instances: instances, Warehouses: 24,
			Mix: workload.PaymentOnly(), LocalOnly: true,
		}, TPSEmit(0, i, 0)))
	}
	p.Finalize = func(res *Result, metrics []Metrics) {
		fg, se := metrics[0].M.ThroughputTPS, metrics[1].M.ThroughputTPS
		res.Tables[0].Set(0, 1, fg/se)
		res.Tables[0].Set(1, 1, 1)
	}
	return p
}

// fig8: microarchitectural profile of the read-only local microbenchmark
// across instance sizes: IPC, stalled cycles, LLC sharing.
func studyFig8(opt Options) *Study {
	configs := []int{24, 12, 8, 4, 2, 1}
	if opt.Quick {
		configs = []int{24, 4, 1}
	}
	rows := axis("%dISL", configs)
	tab := NewTable("microarchitectural profile", "",
		"config", rows, "", []string{"IPC", "stalled %", "LLC sharing %"})
	p := &Study{
		ID: "fig8", Title: "Microarchitectural data per deployment", Ref: "Figure 8",
		Notes: []string{
			"paper: IPC is much higher for smaller instances; instances spanning sockets stall more",
		},
		Tables: []*Table{tab},
	}
	for i, n := range configs {
		p.Cells = append(p.Cells, MicroCell(fmt.Sprintf("fig8/%dISL", n), MicroSpec{
			Machine: topology.QuadSocket, Instances: n, Rows: stdRows,
			MC: workload.MicroConfig{RowsPerTxn: 10}, LocalOnly: true,
		},
			Emit{0, i, 0, func(x Metrics) float64 { return x.M.IPC }},
			Emit{0, i, 1, func(x Metrics) float64 { return x.M.StallFrac * 100 }},
			Emit{0, i, 2, func(x Metrics) float64 { return x.M.LLCShareFrac * 100 }}))
	}
	return p
}
