package main

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadWhy  `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// workloadWhys records why each workload exists, one line each.
var workloadWhys = map[string]string{
	wlFineLocalRead: "24 single-core islands, local read-10 over 60 MB: the fast path turns lock, latch, ipc, wal and 2PC off, so sim, storage, mem and the generator do all the work; the control for gains claimed elsewhere",
	wlScale64:       "64 cores in 16 islands, update-10 at 20% multisite: the largest event heap, with ipc, 2PC, wal forces and locking on every distributed transaction; where kernel and allocation work must show",
	wlTPCC:          "4 islands x 6 workers on the full TPC-C mix over nine tables: B-tree inserts and scans, hot rows with real lock conflict and wait-die retries, and the heavy mix generator",
	wlSweep:         "a 6-cell quick study run cold into a fresh result store and warm from it: the only workload with harness planning, keying, dispatch and resultstore put/get/open on the path",
}

// benchmarkSpec renders the metric tables of this package as BENCHMARK.json.
func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloadNames {
		f.Workloads = append(f.Workloads, workloadWhy{w, workloadWhys[w]})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, endToEndSpec{d.Name, d.Unit, "lower", d.Bound})
	}
	for _, d := range perLayer() {
		// Host times and event counts per transaction shrink as a layer gets
		// cheaper; hit ratios and the sharded speed-up grow.
		better := "lower"
		switch d.Name {
		case "mem.l1_hit_ratio", "storage.bp_hit_ratio", "sim.sharded_speedup":
			better = "higher"
		}
		f.PerLayer = append(f.PerLayer, perLayerSpec{d.Name, d.Unit, better})
	}
	return f
}
