package harness

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"islands/internal/trace"
	"islands/internal/workload"
)

var quad = Geometry{Name: "quad", Sockets: 4, CoresPerSocket: 6}

// TestAdvisorPrefersFineGrainForLocalWorkload is the paper's headline as the
// advisor sees it: a perfectly partitionable workload wants the finest
// grain, a heavily distributed update workload does not.
func TestAdvisorPrefersFineGrainForLocalWorkload(t *testing.T) {
	mc := workload.MicroConfig{RowsPerTxn: 4, Write: true}
	adv, err := AdviseMicro(mc, 24000, []Geometry{quad}, []int{1, 4, 24}, 1, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if adv.Best.Instances != 24 {
		t.Errorf("advisor picked %dISL for perfectly partitionable workload, want 24ISL", adv.Best.Instances)
	}
	mc.PctMultisite = 0.9
	if adv, err = AdviseMicro(mc, 24000, []Geometry{quad}, []int{1, 4, 24}, 1, quickOpt()); err != nil {
		t.Fatal(err)
	}
	if adv.Best.Instances == 24 {
		t.Error("advisor picked 24ISL for 90% multisite updates")
	}
}

// TestAdviseMicroIsAStudy pins what the synthetic advisor inherits from
// being a Study: its measured column is a plain MicroCell's number, the
// executor's parallelism does not show, a result store serves a rerun
// whole, and one column reader ranks single- and multi-replica sweeps.
func TestAdviseMicroIsAStudy(t *testing.T) {
	mc := workload.MicroConfig{RowsPerTxn: 4, PctMultisite: 0.2}
	geos, sizes := []Geometry{quad}, []int{4, 1}
	opt := quickOpt()
	opt.Parallel = 1
	adv, err := AdviseMicro(mc, 24000, geos, sizes, 1, opt)
	if err != nil {
		t.Fatal(err)
	}

	plain := (&Study{
		ID:     "plain",
		Tables: []*Table{NewTable("t", "KTps", "r", []string{"4ISL"}, "", []string{"v"})},
		Cells: []Cell{MicroCell("plain/4ISL", MicroSpec{Machine: quad.Machine, Instances: 4, Rows: 24000, MC: mc},
			TPSEmit(0, 0, 0))},
	}).Run(opt)
	if got, want := adv.Result.Tables[0].Values[0][0], plain.Tables[0].Values[0][0]; got != want || got <= 0 {
		t.Errorf("measured column of quad/4ISL = %v, a plain MicroCell of the spec measures %v", got, want)
	}

	for _, c := range adv.Ranked {
		if c.TPSSigma != 0 {
			t.Errorf("%s: one replica reports σ = %v", c.Label, c.TPSSigma)
		}
		// The table computes the model in KTps: equal up to rounding.
		if want := (1-mc.PctMultisite)*c.LocalTPS + mc.PctMultisite*c.DistrTPS; want <= 0 || math.Abs(c.PredictedTPS-want) > 1e-9*want {
			t.Errorf("%s: predicted %v, the model gives %v", c.Label, c.PredictedTPS, want)
		}
		if c.Instances == 1 && (c.DistrTPS != c.LocalTPS || c.MultisiteFrac != 0) {
			t.Errorf("%s: T_distr %v != T_local %v (multisite %v)", c.Label, c.DistrTPS, c.LocalTPS, c.MultisiteFrac)
		}
	}

	opt.Parallel = 4
	par, err := AdviseMicro(mc, 24000, geos, sizes, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adv, par) {
		t.Errorf("Parallel 1 and 4 advise differently:\n%+v\n%+v", adv.Ranked, par.Ranked)
	}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var count cacheCounter
	opt.Store, opt.CellCache = st, count.fn
	cold, err := AdviseMicro(mc, 24000, geos, sizes, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if count.hits+count.misses != 3*5 {
		t.Fatalf("3 replicas of a 2-candidate sweep ran %d cells, want 15 (the 1ISL candidate has no distr cell)", count.hits+count.misses)
	}
	count = cacheCounter{}
	warm, err := AdviseMicro(mc, 24000, geos, sizes, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if count.misses != 0 || !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm rerun: %d misses, same advice = %v", count.misses, reflect.DeepEqual(cold, warm))
	}
	if cold.Best.TPSSigma <= 0 || len(cold.Result.Tables[0].Cols) != 10 {
		t.Errorf("3 replicas: σ = %v over %d columns", cold.Best.TPSSigma, len(cold.Result.Tables[0].Cols))
	}
	if cold.Ranked[0].TPS < cold.Ranked[1].TPS {
		t.Errorf("ranking not descending: %v then %v", cold.Ranked[0].TPS, cold.Ranked[1].TPS)
	}
}

// TestAdviseErrors runs the candidate-grid failure modes against the shared
// pipeline through both sources, and each source's own empty input.
func TestAdviseErrors(t *testing.T) {
	opt := quickOpt()
	opt.Short = true
	tr := RecordTPCC(tpccTraceSpec(4, workload.SpecSizing().Scaled(20)), opt)
	mc := workload.MicroConfig{RowsPerTxn: 4}
	sources := map[string]func(geos []Geometry, sizes []int) (*Advice, error){
		"trace": func(g []Geometry, s []int) (*Advice, error) { return AdviseTrace(tr, g, s, 1, opt) },
		"micro": func(g []Geometry, s []int) (*Advice, error) { return AdviseMicro(mc, 24000, g, s, 1, opt) },
	}
	for name, advise := range sources {
		if _, err := advise(nil, nil); err == nil || !strings.Contains(err.Error(), "no candidate geometries") {
			t.Errorf("%s: no geometries: %v", name, err)
		}
		if _, err := advise([]Geometry{quad}, []int{5, 48}); err == nil || !strings.Contains(err.Error(), "no island size divides") {
			t.Errorf("%s: no dividing size: %v", name, err)
		}
	}
	if _, err := AdviseTrace(&trace.Trace{}, []Geometry{quad}, nil, 1, opt); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := AdviseMicro(mc, 12, []Geometry{quad}, nil, 1, opt); err == nil || !strings.Contains(err.Error(), "24 islands") {
		t.Errorf("12 rows over 24 islands: %v", err)
	}
}
