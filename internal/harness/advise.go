package harness

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strings"

	"islands/internal/core"
	"islands/internal/engine"
	"islands/internal/resultstore"
	"islands/internal/trace"
	"islands/internal/workload"
)

// The advisor answers the paper's closing question (Section 8): "determine
// the ideal size of each island automatically for the given hardware and
// workload". It is one pipeline, advise, over a grid of candidates (machine
// geometries × island sizes) and two workload sources: a recorded trace
// (AdviseTrace) and a generated microbenchmark (AdviseMicro).

// Candidate is one deployment candidate of an advisor sweep: an island size
// on a machine geometry, with what the sweep measured for it.
type Candidate struct {
	Label     string
	Geometry  Geometry
	Instances int
	// TPS is the workload's mean throughput on the candidate (transactions
	// per second) and TPSSigma its population stddev over the seed replicas
	// (0 for a single replica); MultisiteFrac is the mean fraction (0..1)
	// of committed transactions that spanned instances — how partitionable
	// the workload is under this candidate's geometry.
	TPS, TPSSigma, MultisiteFrac float64
	// LocalTPS and DistrTPS are the endpoints of the paper's throughput
	// model — the workload with no and with only multisite transactions —
	// and PredictedTPS their interpolation at the workload's own fraction.
	// Only AdviseMicro fills them: a trace has no such knob to turn.
	LocalTPS, DistrTPS, PredictedTPS float64
}

// Advice is a ranked deployment recommendation.
type Advice struct {
	// Best is Ranked[0]: the candidate with the highest measured throughput.
	Best Candidate
	// Ranked lists every candidate, best first (ties keep sweep order).
	Ranked []Candidate
	// Result is the underlying study result (tables, notes) for printing.
	Result *Result
}

// Format renders the ranking as aligned text, best first, and the
// recommendation under it. The throughput model's columns lead each row
// when the source calibrated them.
func (a *Advice) Format() string {
	var b strings.Builder
	model := slices.Contains(a.Result.Tables[0].Cols, "predicted")
	head, measured := "", "KTps"
	if model {
		head, measured = fmt.Sprintf(" %10s %10s %10s", "T_local", "T_distr", "predicted"), "measured"
	}
	fmt.Fprintf(&b, "%-24s%s %12s %10s %12s\n", "candidate", head, measured, "±σ", "multisite %")
	for _, c := range a.Ranked {
		cols := ""
		if model {
			cols = fmt.Sprintf(" %10.1f %10.1f %10.1f", c.LocalTPS/1e3, c.DistrTPS/1e3, c.PredictedTPS/1e3)
		}
		fmt.Fprintf(&b, "%-24s%s %12.1f %10.1f %12.2f\n", c.Label, cols, c.TPS/1e3, c.TPSSigma/1e3, c.MultisiteFrac*100)
	}
	fmt.Fprintf(&b, "\nrecommended: %s (%d instances on %s)", a.Best.Label, a.Best.Instances, a.Best.Geometry.Label())
	if a.Best.Instances == a.Best.Geometry.Sockets {
		b.WriteString(" — one island per socket, the paper's rule of thumb")
	}
	return b.String() + "\n"
}

// adviceCols are the columns of an advisor's result table in canonical
// order, and adviceScale the factor that converts each to its Candidate
// field's unit. Every source fills the first two; the model's follow.
var (
	adviceCols  = []string{"KTps", "multisite %", "T_local", "T_distr", "predicted"}
	adviceScale = []float64{1e3, 0.01, 1e3, 1e3, 1e3}
)

// advise is the pipeline the sources share. It enumerates the candidates —
// per geometry the island sizes (instance counts) in sizes, nil meaning
// CandidateSizes; sizes that do not divide the cores are skipped — gives st
// one table with a row per candidate and the first ncols adviceCols, asks
// the source for the cells that fill each row, runs the study replicated
// over seeds (±σ via Study.Seeds), reads the columns back and ranks by
// measured throughput. st arrives with its metadata and Finalize set.
func advise(st *Study, ncols int, geos []Geometry, sizes []int, seeds int, opt Options,
	cells func(row int, c Candidate) ([]Cell, error)) (*Advice, error) {

	if len(geos) == 0 {
		return nil, fmt.Errorf("harness: no candidate geometries")
	}
	var cands []Candidate
	var rows []string
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
			c := Candidate{Label: fmt.Sprintf("%s/%dISL", g.Label(), n), Geometry: g, Instances: n}
			cs, err := cells(len(cands), c)
			if err != nil {
				return nil, err
			}
			st.Cells = append(st.Cells, cs...)
			cands, rows = append(cands, c), append(rows, c.Label)
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("harness: no island size divides any candidate geometry evenly")
	}
	st.Tables = []*Table{NewTable("candidates", "", "candidate", rows, "", adviceCols[:ncols])}

	res := st.Seeds(seeds).Run(opt)
	for i := range cands {
		c := &cands[i]
		fields := []*float64{&c.TPS, &c.MultisiteFrac, &c.LocalTPS, &c.DistrTPS, &c.PredictedTPS}
		for j, f := range fields[:ncols] {
			mean, sigma := seedsCol(res.Tables[0], seeds, i, j)
			*f = mean * adviceScale[j]
			if j == 0 {
				c.TPSSigma = sigma * adviceScale[j]
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].TPS > cands[b].TPS })
	return &Advice{Best: cands[0], Ranked: cands, Result: res}, nil
}

// AdviseTrace replays one recorded trace across island size × machine
// geometry candidates and ranks the outcomes: the advisor for *your*
// workload. Replica r of a seeds > 1 sweep replays with stream rotation r (a
// pure seed change would not perturb a deterministic replay), so the ±σ
// measures sensitivity to how trace streams land on workers.
//
// The trace's schema travels with it: each candidate deployment declares
// the trace's tables, range-partitioned over the candidate's instances, so
// the same global keys become local or multisite according to the
// candidate — the question the advisor answers.
func AdviseTrace(t *trace.Trace, geos []Geometry, sizes []int, seeds int, opt Options) (*Advice, error) {
	if len(t.Records) == 0 {
		return nil, fmt.Errorf("harness: cannot advise on an empty trace")
	}
	// Every cell runs under the study ID "traceadvise", so a positional
	// result-store key could not tell two traces apart. Hash the trace's
	// canonical encoding once and give every candidate cell a semantic key
	// over it; replicas differ by stream rotation.
	traceBytes, err := t.AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("harness: encoding trace for result keys: %w", err)
	}
	traceSum := sha256.Sum256(traceBytes)
	// Replica r runs at opt.Seed + r*SeedStride; map the delta back to r.
	rotation := func(o Options) int64 { return (o.Seed - opt.Seed) / SeedStride }

	st := &Study{
		ID:    "traceadvise",
		Title: fmt.Sprintf("trace-driven advisor: %s", t.Label),
		Ref:   "trace replay",
		Notes: []string{fmt.Sprintf("replaying %d records over %d streams on every candidate", len(t.Records), len(t.Streams))},
	}
	return advise(st, 2, geos, sizes, seeds, opt, func(row int, c Candidate) ([]Cell, error) {
		return []Cell{SourceCell("traceadvise/"+c.Label, SourceSpec{
			Machine:   c.Geometry.Machine,
			Instances: c.Instances,
			Tables:    t.Tables,
			Source: func(d *core.Deployment, o Options) engine.RequestSource {
				r, err := trace.NewReplayer(t, workersOf(d), rotation(o))
				if err != nil {
					panic(fmt.Sprintf("harness: %v", err))
				}
				return r
			},
			Key: func(o Options, h *resultstore.Hasher) {
				h.Str("tracereplay")
				h.Bytes(traceSum[:])
				h.I64(rotation(o))
			},
		}, TPSEmit(0, row, 0), multisitePctEmit(0, row, 1))}, nil
	})
}

// AdviseMicro ranks the candidates for a generated microbenchmark of `rows`
// rows with mc's transaction shape, and calibrates the paper's Section 4
// throughput model T = (1-p)·T_local + p·T_distr beside the measurement:
// per candidate, one cell runs the workload at mc.PctMultisite (measured,
// the ranking column), one with no multisite transactions (T_local) and
// one with nothing else (T_distr). Locking stays on in all three, as in
// every sweep that includes multisite points. A single-instance candidate
// executes everything locally: its local cell fills both model columns.
func AdviseMicro(mc workload.MicroConfig, rows int64, geos []Geometry, sizes []int, seeds int, opt Options) (*Advice, error) {
	p := mc.PctMultisite
	st := &Study{
		ID:    "microadvise",
		Title: fmt.Sprintf("advisor: %d rows/txn, write=%v, %.0f%% multisite, zipf %.2f", mc.RowsPerTxn, mc.Write, p*100, mc.ZipfS),
		Ref:   "Section 8 (future work)",
		Notes: []string{"predicted = (1-p)*T_local + p*T_distr; candidates rank by the measured column"},
		// The interpolation needs two cells' metrics, so it is a derived
		// value: Seeds replicates and averages it like any other.
		Finalize: func(res *Result, _ []Metrics) {
			for _, v := range res.Tables[0].Values {
				v[4] = (1-p)*v[2] + p*v[3]
			}
		},
	}
	return advise(st, 5, geos, sizes, seeds, opt, func(row int, c Candidate) ([]Cell, error) {
		if rows < int64(c.Instances) {
			return nil, fmt.Errorf("harness: %d rows cannot be spread over the %d islands of %s", rows, c.Instances, c.Label)
		}
		cell := func(kind string, pct float64, emits ...Emit) Cell {
			spec := MicroSpec{Machine: c.Geometry.Machine, Instances: c.Instances, Rows: rows, MC: mc}
			spec.MC.PctMultisite = pct
			return MicroCell("microadvise/"+c.Label+"/"+kind, spec, emits...)
		}
		measured := cell("measured", p, TPSEmit(0, row, 0), multisitePctEmit(0, row, 1))
		if c.Instances == 1 {
			return []Cell{measured, cell("local", 0, TPSEmit(0, row, 2), TPSEmit(0, row, 3))}, nil
		}
		return []Cell{measured, cell("local", 0, TPSEmit(0, row, 2)), cell("distr", 1, TPSEmit(0, row, 3))}, nil
	})
}
