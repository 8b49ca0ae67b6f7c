package ipc

import (
	"testing"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// BenchmarkSendRecvSameSocket is a ping-pong between two cores of one
// socket over Unix sockets, the shape of the benchmark's
// ipc.send_recv_same_ns probe; one op is one message sent and received. It
// must not allocate (CI gates on it).
func BenchmarkSendRecvSameSocket(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	topo := topology.QuadSocket()
	model := mem.NewModel(topo)
	net := NewNetwork[int](k, topo, UnixSocket)
	ea, eb := net.NewEndpoint(0), net.NewEndpoint(1)
	rounds := (b.N + 1) / 2
	k.Spawn("a", func(p *sim.Proc) {
		ctx := exec.New(p, 0, model, nil)
		for i := 0; i < rounds; i++ {
			ea.Send(ctx, eb, i)
			ea.Recv(ctx)
		}
	})
	k.Spawn("b", func(p *sim.Proc) {
		ctx := exec.New(p, 1, model, nil)
		for i := 0; i < rounds; i++ {
			eb.Send(ctx, ea, eb.Recv(ctx))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
