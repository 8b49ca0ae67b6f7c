package harness

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/resultstore"
	"islands/internal/topology"
	"islands/internal/trace"
	"islands/internal/workload"
)

// This file wires the trace subsystem (internal/trace) into the study
// layer: recording helpers, the trace-driven deployment advisor, and the
// registered `trace` experiment that pins the recorded-vs-replayed
// equivalence contract behind the golden fingerprint.

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

// TraceCandidate is one deployment candidate of a trace-driven advisor
// sweep, with its replayed throughput and seed-replica error bar.
type TraceCandidate struct {
	Label     string
	Geometry  Geometry
	Instances int
	// TPS is the mean replayed throughput (transactions per second);
	// TPSSigma its population stddev over the seed replicas (0 when the
	// sweep ran a single replica).
	TPS      float64
	TPSSigma float64
	// MultisiteFrac is the mean fraction of committed transactions that
	// spanned instances (0..1) — how partitionable the trace is under this
	// candidate's geometry.
	MultisiteFrac float64
}

// TraceAdvice is a ranked trace-driven deployment recommendation.
type TraceAdvice struct {
	// Best is Ranked[0]: the highest-throughput candidate.
	Best TraceCandidate
	// Ranked lists every candidate, best first (ties keep sweep order).
	Ranked []TraceCandidate
	// Result is the underlying study result (tables, notes) for printing.
	Result *Result
}

// AdviseTrace replays one recorded trace across island size × machine
// geometry candidates and ranks the outcomes — the trace-driven deployment
// advisor. For each geometry, sizes lists the island sizes (instance
// counts) to try; nil defaults to CandidateSizes over the geometry's core
// count, and sizes that do not divide the cores evenly are skipped. seeds
// > 1 replicates every candidate via Study.Seeds; replica r replays with
// stream rotation r (a pure seed change would not perturb a deterministic
// replay), so the ±σ measures sensitivity to how trace streams land on
// workers.
//
// The trace's schema travels with it: each candidate deployment declares
// the trace's tables, range-partitioned over the candidate's instances, so
// the same global keys become local or multisite according to the
// candidate — the question the advisor answers.
func AdviseTrace(t *trace.Trace, geos []Geometry, sizes []int, seeds int, opt Options) (*TraceAdvice, error) {
	if len(t.Records) == 0 {
		return nil, fmt.Errorf("harness: cannot advise on an empty trace")
	}
	if len(geos) == 0 {
		return nil, fmt.Errorf("harness: no candidate geometries")
	}
	if seeds < 1 {
		seeds = 1
	}
	baseSeed := opt.Seed

	// The advisor's cells all run under the study ID "traceadvise", so a
	// positional result-store key could not tell two different traces apart.
	// Hash the trace's canonical encoding once and give every candidate cell
	// a semantic key over it; replicas differ by stream rotation.
	traceBytes, err := t.AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("harness: encoding trace for result keys: %w", err)
	}
	traceSum := sha256.Sum256(traceBytes)

	type cand struct {
		label     string
		geo       Geometry
		instances int
	}
	var cands []cand
	for _, g := range geos {
		cores := g.Sockets * g.CoresPerSocket
		list := sizes
		if list == nil {
			list = CandidateSizes(cores, g.Sockets)
		}
		for _, n := range list {
			if n < 1 || n > cores || cores%n != 0 {
				continue
			}
			cands = append(cands, cand{fmt.Sprintf("%s/%dISL", g.Label(), n), g, n})
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("harness: no island size divides any candidate geometry evenly")
	}

	rows := make([]string, len(cands))
	for i, c := range cands {
		rows[i] = c.label
	}
	st := &Study{
		ID:    "traceadvise",
		Title: fmt.Sprintf("trace-driven advisor: %s", t.Label),
		Ref:   "trace replay",
		Notes: []string{
			fmt.Sprintf("replaying %d records over %d streams across %d candidates", len(t.Records), len(t.Streams), len(cands)),
		},
		Tables: []*Table{
			NewTable("replayed", "", "candidate", rows, "", []string{"KTps", "multisite %"}),
		},
	}
	for i, c := range cands {
		c := c
		st.Cells = append(st.Cells, SourceCell("traceadvise/"+c.label, SourceSpec{
			Machine:   c.geo.Machine,
			Instances: c.instances,
			Tables:    t.Tables,
			Source: func(d *core.Deployment, o Options) engine.RequestSource {
				// Replica r runs at baseSeed + r*SeedStride; map the delta
				// back to a stream rotation.
				rotate := (o.Seed - baseSeed) / SeedStride
				r, err := trace.NewReplayer(t, workersOf(d), rotate)
				if err != nil {
					panic(fmt.Sprintf("harness: %v", err))
				}
				return r
			},
			Key: func(o Options, h *resultstore.Hasher) {
				h.Str("tracereplay")
				h.Bytes(traceSum[:])
				h.I64((o.Seed - baseSeed) / SeedStride)
			},
		},
			TPSEmit(0, i, 0), multisitePctEmit(0, i, 1)))
	}

	res := st.Seeds(seeds).Run(opt)
	adv := &TraceAdvice{Result: res}
	tab := res.Tables[0]
	for i, c := range cands {
		tc := TraceCandidate{Label: c.label, Geometry: c.geo, Instances: c.instances}
		if seeds > 1 {
			// Seeds doubled the columns: value, ±σ, value, ±σ.
			tc.TPS = tab.Values[i][0] * 1e3
			tc.TPSSigma = tab.Values[i][1] * 1e3
			tc.MultisiteFrac = tab.Values[i][2] / 100
		} else {
			tc.TPS = tab.Values[i][0] * 1e3
			tc.MultisiteFrac = tab.Values[i][1] / 100
		}
		adv.Ranked = append(adv.Ranked, tc)
	}
	sort.SliceStable(adv.Ranked, func(a, b int) bool {
		return adv.Ranked[a].TPS > adv.Ranked[b].TPS
	})
	adv.Best = adv.Ranked[0]
	return adv, nil
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
