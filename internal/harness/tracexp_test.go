package harness

import (
	"fmt"
	"strings"
	"testing"

	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/topology"
	"islands/internal/trace"
	"islands/internal/workload"
)

// quickOpt is the fast option set the trace tests run under.
func quickOpt() Options {
	return Options{Quick: true, Seed: 42}
}

// TestTraceReplayMatchesRecorded pins the recorded-vs-replayed equivalence
// contract: record a trace from a quick-mode 4ISL TPC-C deployment, replay
// it on the same spec, and require the full measurement — every field, at
// full precision — to be byte-identical.
func TestTraceReplayMatchesRecorded(t *testing.T) {
	opt := quickOpt()
	sizing := workload.SpecSizing().Scaled(20)
	spec := tpccTraceSpec(4, sizing)

	// Live run (no recorder): the reference metrics.
	live := TPCCCell("live", spec).Run(opt).M

	// Recorded run: the recorder must be a pass-through in virtual time.
	tr := RecordTPCC(spec, opt)
	if len(tr.Records) == 0 || len(tr.Streams) != 24 {
		t.Fatalf("recorded trace has %d records over %d streams; want >0 over 24",
			len(tr.Records), len(tr.Streams))
	}

	// Replay run on the same spec: exact mode, bit-equal metrics.
	replayed := SourceCell("replay", SourceSpec{
		Machine:   spec.Machine,
		Instances: spec.Instances,
		Tables:    workload.MixTableSet(spec.Warehouses, spec.Mix, spec.Sizing),
		Source: func(d *core.Deployment, o Options) engine.RequestSource {
			r, err := trace.NewReplayer(tr, workersOf(d), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Exact() {
				t.Fatalf("same-spec replay did not select exact mode")
			}
			return r
		},
	}).Run(opt).M

	liveS, replayS := fmt.Sprintf("%+v", live), fmt.Sprintf("%+v", replayed)
	if liveS != replayS {
		t.Fatalf("replayed metrics differ from live run:\nlive   %s\nreplay %s", liveS, replayS)
	}

	// The trace round-trips through its binary encoding, and the decoded
	// copy replays to the same metrics (the file is the trace).
	buf, err := tr.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := trace.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed2 := SourceCell("replay-decoded", SourceSpec{
		Machine:   spec.Machine,
		Instances: spec.Instances,
		Tables:    tr2.Tables,
		Source: func(d *core.Deployment, o Options) engine.RequestSource {
			r, err := trace.NewReplayer(tr2, workersOf(d), 0)
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	}).Run(opt).M
	if got := fmt.Sprintf("%+v", replayed2); got != liveS {
		t.Fatalf("decoded-trace replay differs from live run:\nlive   %s\nreplay %s", liveS, got)
	}
}

// TestTraceExperimentReplayEqualsLive checks the registered experiment's
// advertised invariant on its own short-mode table: the 4ISL replay column
// equals the 4ISL live column exactly.
func TestTraceExperimentReplayEqualsLive(t *testing.T) {
	opt := quickOpt()
	opt.Short = true
	res := studyTrace(opt).Run(opt)
	tab := res.Tables[0] // throughput; short rows: 4ISL, 1ISL
	if tab.Values[0][0] != tab.Values[0][1] {
		t.Fatalf("4ISL live %v != 4ISL replay %v", tab.Values[0][0], tab.Values[0][1])
	}
	if tab.Values[0][0] == 0 {
		t.Fatalf("trace experiment measured zero throughput")
	}
	ms := res.Tables[1]
	if ms.Values[0][0] != ms.Values[0][1] {
		t.Fatalf("4ISL live multisite %v != replay %v", ms.Values[0][0], ms.Values[0][1])
	}
}

// TestAdviseTrace runs the advisor end-to-end on a short recorded trace
// across two geometries and checks ranking coherence.
func TestAdviseTrace(t *testing.T) {
	opt := quickOpt()
	opt.Short = true
	tr := RecordTPCC(tpccTraceSpec(4, workload.SpecSizing().Scaled(20)), opt)

	geos := []Geometry{
		{Sockets: 4, CoresPerSocket: 6},
		{Sockets: 4, CoresPerSocket: 6, Interconnect: topology.Ring(4), LatencyScale: 2},
	}
	adv, err := AdviseTrace(tr, geos, []int{4, 1}, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Ranked) != 4 {
		t.Fatalf("got %d candidates, want 4", len(adv.Ranked))
	}
	if adv.Best.Label != adv.Ranked[0].Label || adv.Best.TPS != adv.Ranked[0].TPS {
		t.Fatalf("Best is not Ranked[0]")
	}
	for i := 1; i < len(adv.Ranked); i++ {
		if adv.Ranked[i-1].TPS < adv.Ranked[i].TPS {
			t.Fatalf("ranking not descending at %d: %v then %v", i, adv.Ranked[i-1].TPS, adv.Ranked[i].TPS)
		}
	}
	for _, c := range adv.Ranked {
		if c.TPS <= 0 {
			t.Fatalf("candidate %s measured %v TPS", c.Label, c.TPS)
		}
		if c.MultisiteFrac < 0 || c.MultisiteFrac > 1 {
			t.Fatalf("candidate %s multisite fraction %v out of range", c.Label, c.MultisiteFrac)
		}
	}
	// The doubled ±σ columns exist and the result table carries every
	// candidate row.
	if got := len(adv.Result.Tables[0].Cols); got != 4 {
		t.Fatalf("Seeds(2) result has %d columns, want 4", got)
	}

}

// TestSourceCellCustomSource exercises SourceCell with a from-scratch
// source — the "any experiment" promise of the open cell spec.
func TestSourceCellCustomSource(t *testing.T) {
	st := &Study{
		ID: "custom", Title: "custom source",
		Tables: []*Table{NewTable("tps", "KTps", "r", []string{"only"}, "", []string{"v"})},
	}
	st.Cells = append(st.Cells, SourceCell("custom/only", SourceSpec{
		Machine:   topology.QuadSocket,
		Instances: 4,
		Tables:    []core.TableDecl{{ID: 1, Name: "rows", RowBytes: 100, Rows: 4096}},
		Source: func(d *core.Deployment, o Options) engine.RequestSource {
			return roundRobinSource{rows: 4096}
		},
	}, TPSEmit(0, 0, 0)))
	res := st.Run(quickOpt())
	if v := res.Tables[0].Values[0][0]; v <= 0 {
		t.Fatalf("custom source measured %v KTps", v)
	}
}

// roundRobinSource reads one row per transaction, striding the key space.
type roundRobinSource struct{ rows int64 }

func (s roundRobinSource) Next(inst engine.InstanceID, worker int) engine.Request {
	key := (int64(inst)*31 + int64(worker)*7) % s.rows
	return engine.Request{Ops: []engine.Op{{Table: 1, Key: key, Kind: engine.OpRead}}}
}

func TestParseGeometry(t *testing.T) {
	g, err := ParseGeometry("4:6:8:ring")
	if err != nil {
		t.Fatal(err)
	}
	if g.Sockets != 4 || g.CoresPerSocket != 6 || g.LLCBytes != 8<<20 || g.Interconnect.Name != "ring" {
		t.Fatalf("parsed %+v", g)
	}
	if _, err := ParseGeometry("4:6"); err == nil {
		t.Fatalf("two-field spec accepted")
	}
	if _, err := ParseGeometry("0:6:8"); err == nil {
		t.Fatalf("zero sockets accepted")
	}
	if _, err := ParseGeometry("4:6:8:warp"); err == nil {
		t.Fatalf("unknown fabric accepted")
	}
	if _, err := ParseGeometry("6:4:8:hypercube"); err == nil {
		t.Fatalf("non-power-of-two hypercube accepted")
	}

	gs, err := ParseGeometries("16:4:12, 8:10:30:mesh,")
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || gs[1].Interconnect.Name == "" {
		t.Fatalf("parsed list %+v", gs)
	}
	if _, err := ParseGeometries(" , "); err == nil {
		t.Fatalf("empty list accepted")
	}
}

func TestCandidateSizes(t *testing.T) {
	got := CandidateSizes(24, 4)
	want := []int{1, 2, 4, 8, 12, 24}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("CandidateSizes(24, 4) = %v, want %v", got, want)
	}
	for _, n := range CandidateSizes(80, 8) {
		if 80%n != 0 {
			t.Fatalf("CandidateSizes(80, 8) includes non-divisor %d", n)
		}
	}
}

// TestRecordTPCCDeterministic pins that recording is deterministic: two
// recordings at the same options produce byte-identical traces.
func TestRecordTPCCDeterministic(t *testing.T) {
	opt := quickOpt()
	opt.Short = true
	spec := tpccTraceSpec(4, workload.SpecSizing().Scaled(20))
	a, err := RecordTPCC(spec, opt).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecordTPCC(spec, opt).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("recordings differ (%d vs %d bytes)", len(a), len(b))
	}
	// Kinds must be real TPC-C kinds, not generic: Mix implements the
	// KindReporter hook.
	tr, err := trace.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	tr.Dump(&dump, 1)
	if strings.Contains(dump.String(), "generic") {
		t.Fatalf("TPC-C trace contains generic-kind records:\n%s", dump.String()[:300])
	}
}
