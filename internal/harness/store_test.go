package harness

import (
	"bytes"
	"testing"
	"time"

	"islands/internal/core"
	"islands/internal/resultstore"
	"islands/internal/sim"
	"islands/internal/topology"
	"islands/internal/workload"
)

// cacheCounter tallies executor CellCache callbacks.
type cacheCounter struct {
	hits, misses int
}

func (c *cacheCounter) fn(exp, cell string, hit bool) {
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// fingerprintAll runs every registered experiment under opt and returns the
// concatenated fingerprint lines.
func fingerprintAll(opt Options) []byte {
	var buf bytes.Buffer
	for _, e := range All() {
		e.Run(opt).Fingerprint(&buf)
	}
	return buf.Bytes()
}

// TestStoreWarmRunIsByteIdentical is the tentpole contract: a cold
// sequential run fills the store; after a reopen (so hits come off disk,
// not process memory), a warm parallel run of the same experiments
// produces byte-identical fingerprints with zero cell simulations.
func TestStoreWarmRunIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	var cold cacheCounter
	opt := Options{Quick: true, Short: true, Seed: 42, Parallel: 1, Store: st, CellCache: cold.fn}
	coldFP := fingerprintAll(opt)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if cold.misses == 0 {
		t.Fatal("cold run reported no misses; the cache accounting is broken")
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Loaded() == 0 {
		t.Fatal("reopened store loaded no records from disk")
	}

	// The warm run flips the wall-clock-only knob, cell-level parallelism.
	// A store written by a sequential run must serve it entirely.
	var warm cacheCounter
	wopt := opt
	wopt.Parallel = 4
	wopt.Store = st2
	wopt.CellCache = warm.fn
	warmFP := fingerprintAll(wopt)

	if warm.misses != 0 {
		t.Fatalf("warm run had %d misses (hits=%d); want all %d cells served from the store",
			warm.misses, warm.hits, cold.hits+cold.misses)
	}
	if warm.hits != cold.hits+cold.misses {
		t.Fatalf("warm run reported %d cells, cold run %d", warm.hits, cold.hits+cold.misses)
	}
	if !bytes.Equal(coldFP, warmFP) {
		t.Fatal("warm-cache fingerprint differs from cold run")
	}
}

// TestStoreSeedReplicaSharing pins the Seeds key contract: replica r's key
// equals the plain study's key at seed+r*SeedStride, so replica 0 of a
// Seeds(2) run is served by the records an unreplicated run wrote and only
// replica 1 simulates.
func TestStoreSeedReplicaSharing(t *testing.T) {
	e, ok := Get("fig7")
	if !ok {
		t.Fatal("fig7 not registered")
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var first cacheCounter
	opt := Options{Quick: true, Short: true, Seed: 42, Parallel: 1, Store: st, CellCache: first.fn}
	e.Study(opt).Run(opt)
	cells := first.hits + first.misses
	if first.misses != cells || cells == 0 {
		t.Fatalf("plain run: hits=%d misses=%d; want all %d cells to miss a fresh store",
			first.hits, first.misses, cells)
	}

	var second cacheCounter
	opt.CellCache = second.fn
	e.Study(opt).Seeds(2).Run(opt)
	if second.hits != cells || second.misses != cells {
		t.Fatalf("Seeds(2) run: hits=%d misses=%d; want replica 0 fully served (%d hits) and replica 1 fully simulated (%d misses)",
			second.hits, second.misses, cells, cells)
	}
}

// with returns a copy of spec s edited by f — one variant of a base spec.
func with[T any](s T, f func(*T)) T {
	f(&s)
	return s
}

// TestCellKeyCanonicalization pins what a semantic key must and must not
// depend on, for every deployment-cell kind: Parallel is a wall-clock knob
// (same key); the seed, quick/full mode, SeedDelta,
// ForceFull, every spec field, the fault plan and the window geometry are
// semantic inputs (different keys).
func TestCellKeyCanonicalization(t *testing.T) {
	base := Options{Quick: true, Seed: 42}
	key := func(c Cell, opt Options) resultstore.Key { return cellKey("p", &c, opt) }

	micro := MicroSpec{
		Machine: topology.QuadSocket, Instances: 4, Rows: 1000,
		MC: workload.MicroConfig{RowsPerTxn: 10},
	}
	tpcc := TPCCSpec{
		Machine: topology.QuadSocket, Instances: 4, Warehouses: 8,
		Mix: workload.StandardMix(), RemotePct: 0.15, RemoteItemPct: 0.01,
		Sizing: workload.SpecSizing().Scaled(20),
	}
	faulty := FaultSpec{
		Machine: topology.QuadSocket, Instances: 4, Rows: 1000,
		MC: workload.MicroConfig{RowsPerTxn: 10, Write: true}, Plan: crashPlan,
	}
	source := SourceSpec{
		Machine: topology.QuadSocket, Instances: 4,
		Tables: []core.TableDecl{{ID: 1, Name: "rows", RowBytes: 100, Rows: 4096}},
		Key:    func(_ Options, h *resultstore.Hasher) { h.Str("stream A") },
	}
	activeCores := func(c *core.Config) { c.ActiveCores = 12 }
	var fig14Disk, fig14Mem Cell
	for _, c := range studyFig14(base).Cells {
		if c.CostHint > 0 {
			fig14Disk = c
		} else {
			fig14Mem = c
		}
	}

	kinds := []struct {
		name     string
		cell     Cell
		build    func(Options) plan // nil: the kind's windows are not the test's to stretch
		variants map[string]Cell
	}{
		{"micro", MicroCell("k", micro), micro.plan, map[string]Cell{
			"Instances": MicroCell("k", with(micro, func(s *MicroSpec) { s.Instances = 2 })),
			"Rows":      MicroCell("k", with(micro, func(s *MicroSpec) { s.Rows = 2000 })),
			"MC":        MicroCell("k", with(micro, func(s *MicroSpec) { s.MC.Write = true })),
			"LocalOnly": MicroCell("k", with(micro, func(s *MicroSpec) { s.LocalOnly = true })),
			"SeedDelta": MicroCell("k", with(micro, func(s *MicroSpec) { s.SeedDelta = 7 })),
			"ForceFull": MicroCell("k", with(micro, func(s *MicroSpec) { s.ForceFull = true })),
			"Tweak":     MicroCell("k", with(micro, func(s *MicroSpec) { s.Tweak = activeCores })),
			"Machine":   MicroCell("k", with(micro, func(s *MicroSpec) { s.Machine = topology.OctoSocket })),
		}},
		{"tpcc", TPCCCell("k", tpcc), tpcc.plan, map[string]Cell{
			"Instances":     TPCCCell("k", with(tpcc, func(s *TPCCSpec) { s.Instances = 2 })),
			"Warehouses":    TPCCCell("k", with(tpcc, func(s *TPCCSpec) { s.Warehouses = 16 })),
			"Mix":           TPCCCell("k", with(tpcc, func(s *TPCCSpec) { s.Mix = workload.PaymentOnly() })),
			"RemotePct":     TPCCCell("k", with(tpcc, func(s *TPCCSpec) { s.RemotePct = 0.3 })),
			"RemoteItemPct": TPCCCell("k", with(tpcc, func(s *TPCCSpec) { s.RemoteItemPct = 0.02 })),
			"Sizing":        TPCCCell("k", with(tpcc, func(s *TPCCSpec) { s.Sizing = workload.SpecSizing().Scaled(10) })),
			"LocalOnly":     TPCCCell("k", with(tpcc, func(s *TPCCSpec) { s.LocalOnly = true })),
			"SeedDelta":     TPCCCell("k", with(tpcc, func(s *TPCCSpec) { s.SeedDelta = 7 })),
			"ForceFull":     TPCCCell("k", with(tpcc, func(s *TPCCSpec) { s.ForceFull = true })),
			"Placement": TPCCCell("k", with(tpcc, func(s *TPCCSpec) {
				s.Placement = func(m *topology.Machine, _ Options) [][]topology.CoreID {
					return [][]topology.CoreID{topology.GroupPlacement(m, 4, 0).Cores}
				}
			})),
		}},
		{"fault", FaultCell("k", faulty), faulty.plan, map[string]Cell{
			"Instances": FaultCell("k", with(faulty, func(s *FaultSpec) { s.Instances = 2 })),
			"Rows":      FaultCell("k", with(faulty, func(s *FaultSpec) { s.Rows = 2000 })),
			"MC":        FaultCell("k", with(faulty, func(s *FaultSpec) { s.MC.PctMultisite = 0.2 })),
			"LocalOnly": FaultCell("k", with(faulty, func(s *FaultSpec) { s.LocalOnly = true })),
			"SeedDelta": FaultCell("k", with(faulty, func(s *FaultSpec) { s.SeedDelta = 7 })),
			"Plan":      FaultCell("k", with(faulty, func(s *FaultSpec) { s.Plan = grayPlan })),
			"Tweak":     FaultCell("k", with(faulty, func(s *FaultSpec) { s.Tweak = activeCores })),
		}},
		{"source", SourceCell("k", source), source.plan, map[string]Cell{
			"Instances": SourceCell("k", with(source, func(s *SourceSpec) { s.Instances = 2 })),
			"Tables":    SourceCell("k", with(source, func(s *SourceSpec) { s.Tables = micro.plan(base).cfg.Tables })),
			"LocalOnly": SourceCell("k", with(source, func(s *SourceSpec) { s.LocalOnly = true })),
			"SeedDelta": SourceCell("k", with(source, func(s *SourceSpec) { s.SeedDelta = 7 })),
			"ForceFull": SourceCell("k", with(source, func(s *SourceSpec) { s.ForceFull = true })),
			"Tweak":     SourceCell("k", with(source, func(s *SourceSpec) { s.Tweak = activeCores })),
			"Key": SourceCell("k", with(source, func(s *SourceSpec) {
				s.Key = func(_ Options, h *resultstore.Hasher) { h.Str("stream B") }
			})),
		}},
		{"fig14", fig14Disk, nil, map[string]Cell{"in-memory sibling": fig14Mem}},
	}
	for _, k := range kinds {
		want := key(k.cell, base)
		wall := base
		wall.Parallel = 8
		if key(k.cell, wall) != want {
			t.Errorf("%s: key depends on Parallel; sequential stores could not serve parallel runs", k.name)
		}
		seed, mode := base, base
		seed.Seed, mode.Quick = 43, false
		if key(k.cell, seed) == want {
			t.Errorf("%s: key ignores the seed", k.name)
		}
		if key(k.cell, mode) == want {
			t.Errorf("%s: key ignores quick/full mode", k.name)
		}
		seen := map[resultstore.Key]string{want: "the base spec"}
		for name, c := range k.variants {
			got := key(c, base)
			if other, dup := seen[got]; dup {
				t.Errorf("%s: changing %s gives the key of %s", k.name, name, other)
			}
			seen[got] = name
		}
		if k.build == nil {
			continue
		}
		for name, stretch := range map[string]func(*plan){
			"warmup": func(p *plan) { p.warmup += sim.Microsecond },
			"window": func(p *plan) { p.window += sim.Microsecond },
			"series": func(p *plan) { p.series++ },
		} {
			c := planCell("k", false, func(o Options) plan {
				p := k.build(o)
				stretch(&p)
				return p
			}, nil)
			if key(c, base) == want {
				t.Errorf("%s: key ignores the %s of the window geometry", k.name, name)
			}
		}
	}
	// SeedDelta is the seed: a spec at delta d keys like the plain spec run
	// at seed+d (what lets Seeds replicas share records with plain runs).
	shifted := base
	shifted.Seed += 7
	if key(MicroCell("k", with(micro, func(s *MicroSpec) { s.SeedDelta = 7 })), base) != key(MicroCell("k", micro), shifted) {
		t.Error("micro: SeedDelta 7 does not key like seed+7")
	}

	// Positional fallback: same name+plan collides (by design), different
	// name or plan does not.
	s1 := ScalarCell("key/scalar", func(Options) float64 { return 1 })
	s2 := ScalarCell("key/scalar", func(Options) float64 { return 2 })
	s3 := ScalarCell("key/other", func(Options) float64 { return 1 })
	if cellKey("p", &s1, base) != cellKey("p", &s2, base) {
		t.Fatal("positional key is not positional")
	}
	if cellKey("p", &s1, base) == cellKey("p", &s3, base) {
		t.Fatal("positional key ignores the cell name")
	}
	if cellKey("p", &s1, base) == cellKey("q", &s1, base) {
		t.Fatal("positional key ignores the plan ID")
	}
}

// TestEveryDeploymentCellIsKeyed: in every registered quick study, every
// deployment cell carries a semantic key — Figure 14's included — and only
// the studies made of ScalarCells (custom measurements with no deployment to
// hash) fall back to positional keys.
func TestEveryDeploymentCellIsKeyed(t *testing.T) {
	scalar := map[string]bool{"fig2": true, "table1": true, "fig6": true}
	keyed := map[string]int{}
	for _, e := range All() {
		for _, c := range e.Study(Options{Quick: true}).Cells {
			switch {
			case c.Key != nil:
				keyed[e.ID]++
			case !scalar[e.ID]:
				t.Errorf("%s: deployment cell %s has no semantic key", e.ID, c.Name)
			}
		}
		if scalar[e.ID] && keyed[e.ID] != 0 {
			t.Errorf("%s: listed as a scalar-only study but has %d keyed cells", e.ID, keyed[e.ID])
		}
	}
	if keyed["fig14"] == 0 || keyed["trace"] == 0 {
		t.Errorf("keyed cells per study: %v; want fig14 and trace among them", keyed)
	}
}

// TestStoreReorderKeepsTables pins the learned-hint contract: a store whose
// celltimes invert the static cost ranking reorders parallel dispatch, and
// the assembled tables are byte-identical anyway.
func TestStoreReorderKeepsTables(t *testing.T) {
	e, ok := Get("fig8")
	if !ok {
		t.Fatal("fig8 not registered")
	}
	opt := Options{Quick: true, Short: true, Seed: 42, Parallel: 2}
	var plain bytes.Buffer
	e.Run(opt).Fingerprint(&plain)

	// Learn inverted costs: declaration order ascending, so the dispatch
	// order under hints is the reverse of declaration order.
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	study := e.Study(opt)
	for i, c := range study.Cells {
		if err := st.PutHint(c.Name, time.Duration(i+1)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	order := dispatchOrder(study.Cells, st)
	for i := range order {
		if want := len(order) - 1 - i; order[i] != want {
			t.Fatalf("hinted dispatch order %v; want exact reverse of declaration order", order)
		}
	}

	hopt := opt
	hopt.Store = st
	var hinted bytes.Buffer
	e.Run(hopt).Fingerprint(&hinted)
	if !bytes.Equal(plain.Bytes(), hinted.Bytes()) {
		t.Fatal("hint-reordered parallel run changed the tables")
	}
}

// TestStoreHintElapsedRoundTrip checks the executor persists measured
// wall-clocks as hints a later Open can read back.
func TestStoreHintElapsedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := Get("fig7")
	opt := Options{Quick: true, Short: true, Seed: 42, Parallel: 1, Store: st}
	e.Run(opt)
	study := e.Study(opt)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, c := range study.Cells {
		if d, ok := st2.Hint(c.Name); !ok || d <= 0 {
			t.Fatalf("cell %s: learned hint missing after reopen (ok=%v d=%v)", c.Name, ok, d)
		}
	}
}
