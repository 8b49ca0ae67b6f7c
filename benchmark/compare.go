package main

import (
	"fmt"
	"io"
	"reflect"
)

// comparable reports why two headers' results must not be compared, or "".
func comparable(a, b header) string {
	switch {
	case a.Seed != b.Seed:
		return fmt.Sprintf("seeds differ: %d and %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds || a.RepsFixed != b.RepsFixed:
		return fmt.Sprintf("repetitions differ: %g s / %d fixed and %g s / %d fixed", a.Seconds, a.RepsFixed, b.Seconds, b.RepsFixed)
	case !reflect.DeepEqual(a.Sizing, b.Sizing):
		return fmt.Sprintf("windows differ: sizing %+v and %+v", a.Sizing, b.Sizing)
	}
	return ""
}

// compareResults prints, per workload and end-to-end metric, both sides'
// medians over their runs, the relative difference and a verdict against
// the metric's bound:
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the run-to-run spread of a side is wider than the bound, so
//	            the difference cannot be told from noise — unless every run
//	            of B reads better than every run of A, which is ok
//
// It reports whether any pairing regressed, and refuses sets whose seed,
// repetitions or windows differ.
func compareResults(w io.Writer, a, b resultSet) (regressed bool, err error) {
	for _, r := range append(append([]runResult(nil), a.Runs...), b.Runs...) {
		if r.Trace {
			return false, fmt.Errorf("%s: traced runs carry no end-to-end metrics to compare", r.Workload)
		}
		if why := comparable(a.Runs[0].Header, r.Header); why != "" {
			return false, fmt.Errorf("refusing to compare: %s", why)
		}
	}
	ha, hb := a.Runs[0].Header, b.Runs[0].Header
	fmt.Fprintf(w, "A: rev=%s %s nproc=%d GOMAXPROCS=%d GOGC=%s\n", ha.GitRev, ha.GoVersion, ha.NProc, ha.GOMAXPROCS, ha.GOGC)
	fmt.Fprintf(w, "B: rev=%s %s nproc=%d GOMAXPROCS=%d GOGC=%s\n", hb.GitRev, hb.GoVersion, hb.NProc, hb.GOMAXPROCS, hb.GOGC)
	if ha.NProc != hb.NProc || ha.GOMAXPROCS != hb.GOMAXPROCS || ha.GoVersion != hb.GoVersion || ha.GOGC != hb.GOGC {
		fmt.Fprintln(w, "warning: the two sides ran on different hosts or runtimes; host times are not like for like")
	}
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "diff", "bound", "verdict")
	for _, wl := range workloadNames {
		ra, rb := runsOf(a, wl), runsOf(b, wl)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := valuesOf(ra, d.Name), valuesOf(rb, d.Name)
			ma, mb := median(va), median(vb)
			diff := 0.0
			if ma != 0 {
				diff = (mb - ma) / ma
			}
			verdict := "ok"
			switch {
			case iqrShare(va) > d.Bound || iqrShare(vb) > d.Bound:
				if !allBelow(vb, va) {
					verdict = "unresolved"
				}
			case diff > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (n=%d,%d)\n",
				wl, d.Name, ma, mb, diff*100, d.Bound*100, verdict, len(va), len(vb))
		}
		failed := 0
		for _, r := range append(ra, rb...) {
			failed += r.Failed
		}
		sim := "identical"
		if ra[0].Digest != rb[0].Digest {
			sim = "CHANGED (the simulated results moved: a re-baseline, not a host-time regression)"
		}
		fmt.Fprintf(w, "%-20s failed repetitions: %d; simulated digest: %s\n", wl, failed, sim)
		if failed > 0 {
			regressed = true
		}
	}
	return regressed, nil
}

func runsOf(s resultSet, workload string) []runResult {
	var out []runResult
	for _, r := range s.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []runResult, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// allBelow reports whether every value of b is below every value of a.
func allBelow(b, a []float64) bool {
	for _, x := range b {
		for _, y := range a {
			if x >= y {
				return false
			}
		}
	}
	return true
}
