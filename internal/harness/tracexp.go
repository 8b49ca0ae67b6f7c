package harness

import (
	"fmt"

	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/resultstore"
	"islands/internal/topology"
	"islands/internal/trace"
	"islands/internal/workload"
)

// This file wires the trace subsystem (internal/trace) into the study
// layer: recording helpers and the registered `trace` experiment that pins
// the recorded-vs-replayed equivalence contract behind the golden
// fingerprint (AdviseTrace, in advise.go, replays a trace across candidates).

// workersOf returns the per-instance worker counts of a deployment — the
// stream enumeration a Replayer needs.
func workersOf(d *core.Deployment) []int {
	out := make([]int, len(d.Instances))
	for i, in := range d.Instances {
		out[i] = len(in.Cores)
	}
	return out
}

// record runs a cell's plan with its request source teed into a
// trace.Recorder and returns the finished trace. Deployment, seeds and
// measurement windows are the plan's own, so a trace recorded here and
// replayed on the same spec reproduces the live cell's metrics
// bit-identically (the Recorder is a pass-through in virtual time).
func record(p plan, workloadLabel string) *trace.Trace {
	var rec *trace.Recorder
	source := p.source
	p.source = func(d *core.Deployment) engine.RequestSource {
		rec = trace.NewRecorder(source(d),
			fmt.Sprintf("%s %s/%dISL", workloadLabel, p.cfg.Machine.Name, p.cfg.Instances), p.cfg.Tables)
		return rec
	}
	p.run()
	return rec.Finish()
}

// RecordTPCC records a trace from the TPC-C cell the spec declares.
func RecordTPCC(s TPCCSpec, opt Options) *trace.Trace {
	return record(s.plan(opt), fmt.Sprintf("tpcc w=%d", s.Warehouses))
}

// RecordMicro records a trace from the microbenchmark cell the spec declares.
func RecordMicro(s MicroSpec, opt Options) *trace.Trace {
	return record(s.plan(opt), fmt.Sprintf("micro rows=%d", s.Rows))
}

// tpccTraceSpec is the deployment the `trace` experiment records from: the
// studyTPCCMix machine and mix at the spec's own remote probabilities.
func tpccTraceSpec(instances int, sizing workload.Sizing) TPCCSpec {
	return TPCCSpec{
		Machine: topology.QuadSocket, Instances: instances, Warehouses: 24,
		Mix:       workload.StandardMix(),
		RemotePct: 0.15, RemoteItemPct: 0.01,
		Sizing: sizing,
	}
}

// studyTrace pins the trace subsystem's equivalence contract behind the
// golden fingerprint: for each island configuration, a live TPC-C cell
// next to a cell that records a fresh trace from the 4ISL deployment and
// replays it onto the configuration. The 4ISL replay column must equal the
// 4ISL live column bit-for-bit (same stream set, rotation 0 → the
// replayer's exact mode); the other rows replay the same trace onto
// different geometries through the strided time-ordered deal, exactly what
// AdviseTrace does per candidate.
func studyTrace(opt Options) *Study {
	configs := []int{24, 4, 1}
	sizing := workload.SpecSizing().Scaled(10)
	if opt.Quick {
		sizing = workload.SpecSizing().Scaled(20)
	}
	if opt.Short {
		configs = []int{4, 1}
	}

	rows := axis("%dISL", configs)
	cols := []string{"live", "replay"}

	p := &Study{
		ID: "trace", Title: "Trace record/replay across island configurations", Ref: "trace subsystem",
		Notes: []string{
			"live = the TPC-C mix generated online; replay = a trace recorded from the 4ISL deployment, replayed",
			"the 4ISL replay column equals the 4ISL live column bit-for-bit (exact-mode replay)",
			"other rows replay the same trace onto a different stream set (strided time-ordered deal)",
		},
		Tables: []*Table{
			NewTable("throughput", "KTps", "config", rows, "source", cols),
			NewTable("multisite fraction", "%", "config", rows, "source", cols),
		},
	}

	recorded := tpccTraceSpec(4, sizing)
	for i, n := range configs {
		spec := tpccTraceSpec(n, sizing)
		p.Cells = append(p.Cells, TPCCCell(
			fmt.Sprintf("trace/%dISL/live", n), spec,
			TPSEmit(0, i, 0), multisitePctEmit(1, i, 0)))
		p.Cells = append(p.Cells, SourceCell(
			fmt.Sprintf("trace/%dISL/replay", n), SourceSpec{
				Machine:   spec.Machine,
				Instances: n,
				Tables:    workload.MixTableSet(spec.Warehouses, spec.Mix, spec.Sizing),
				Source: func(d *core.Deployment, o Options) engine.RequestSource {
					r, err := trace.NewReplayer(RecordTPCC(recorded, o), workersOf(d), 0)
					if err != nil {
						panic(fmt.Sprintf("harness: %v", err))
					}
					return r
				},
				// The replayed trace is a pure function of the deployment it
				// is recorded from: that deployment's own key identifies it.
				Key: func(o Options, h *resultstore.Hasher) {
					h.Str("recorded")
					recorded.plan(o).key(h)
				},
			},
			TPSEmit(0, i, 1), multisitePctEmit(1, i, 1)))
	}
	return p
}
