package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"islands/internal/engine"
	"islands/internal/storage"
)

// fakePart is a simple even-range PartitionInfo.
type fakePart struct {
	n    int
	rows map[storage.TableID]int64
}

func (p fakePart) Instances() int { return p.n }
func (p fakePart) Range(t storage.TableID, i int) (int64, int64) {
	per := p.rows[t] / int64(p.n)
	return int64(i) * per, per
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(1000, 0)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(rng)/100]++
	}
	for d, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("decile %d has %d samples, expected ~10000", d, c)
		}
	}
}

func TestZipfSkewConcentratesOnLowRanks(t *testing.T) {
	z := NewZipf(10000, 0.99)
	rng := rand.New(rand.NewSource(2))
	low := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if z.Sample(rng) < 100 {
			low++
		}
	}
	frac := float64(low) / n
	if frac < 0.5 {
		t.Errorf("top-1%% of keys drew %.2f of samples; want >= 0.5 under s=0.99", frac)
	}
}

func TestZipfSamplesInRange(t *testing.T) {
	f := func(seed int64, sPick uint8) bool {
		s := []float64{0, 0.25, 0.5, 0.75, 0.99, 1.2}[int(sPick)%6]
		z := NewZipf(500, s)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			k := z.Sample(rng)
			if k < 0 || k >= 500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestZipfMonotoneRankProbability(t *testing.T) {
	z := NewZipf(100, 0.9)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 100)
	for i := 0; i < 200000; i++ {
		counts[z.Sample(rng)]++
	}
	if !(counts[0] > counts[10] && counts[10] > counts[60]) {
		t.Errorf("rank frequencies not decreasing: c0=%d c10=%d c60=%d", counts[0], counts[10], counts[60])
	}
}

func TestMicroLocalTxnStaysInPartition(t *testing.T) {
	part := fakePart{n: 4, rows: map[storage.TableID]int64{1: 4000}}
	m := NewMicro(MicroConfig{Table: 1, GlobalRows: 4000, RowsPerTxn: 5, PctMultisite: 0, Seed: 7}, part)
	for inst := 0; inst < 4; inst++ {
		for i := 0; i < 50; i++ {
			req := m.Next(engine.InstanceID(inst), 0)
			if len(req.Ops) != 5 {
				t.Fatalf("ops = %d, want 5", len(req.Ops))
			}
			lo, n := part.Range(1, inst)
			for _, op := range req.Ops {
				if op.Key < lo || op.Key >= lo+n {
					t.Fatalf("local txn for instance %d touched key %d outside [%d,%d)", inst, op.Key, lo, lo+n)
				}
				if op.Kind != engine.OpRead {
					t.Fatal("read-only config produced writes")
				}
			}
		}
	}
}

func TestMicroMultisiteFractionRoughlyRespected(t *testing.T) {
	part := fakePart{n: 4, rows: map[storage.TableID]int64{1: 4000}}
	m := NewMicro(MicroConfig{Table: 1, GlobalRows: 4000, RowsPerTxn: 2, Write: true, PctMultisite: 0.5, Seed: 11}, part)
	remoteTouch := 0
	const txns = 2000
	for i := 0; i < txns; i++ {
		req := m.Next(0, 0)
		lo, n := part.Range(1, 0)
		for _, op := range req.Ops {
			if op.Key < lo || op.Key >= lo+n {
				remoteTouch++
				break
			}
		}
	}
	// 50% multisite, each with 1 global row that is remote w.p. 3/4:
	// expect ~37.5% of txns to touch remote data.
	frac := float64(remoteTouch) / txns
	if frac < 0.30 || frac > 0.45 {
		t.Errorf("remote-touch fraction = %.3f, want ~0.375", frac)
	}
}

func TestMicroWriteKinds(t *testing.T) {
	part := fakePart{n: 2, rows: map[storage.TableID]int64{1: 200}}
	m := NewMicro(MicroConfig{Table: 1, GlobalRows: 200, RowsPerTxn: 3, Write: true, Seed: 3}, part)
	req := m.Next(1, 2)
	for _, op := range req.Ops {
		if op.Kind != engine.OpUpdate {
			t.Fatal("write config produced non-update ops")
		}
	}
}

func TestMicroDeterministicPerSeed(t *testing.T) {
	part := fakePart{n: 2, rows: map[storage.TableID]int64{1: 2000}}
	a := NewMicro(MicroConfig{Table: 1, GlobalRows: 2000, RowsPerTxn: 4, PctMultisite: 0.3, Seed: 5}, part)
	b := NewMicro(MicroConfig{Table: 1, GlobalRows: 2000, RowsPerTxn: 4, PctMultisite: 0.3, Seed: 5}, part)
	for i := 0; i < 100; i++ {
		ra, rb := a.Next(1, 0), b.Next(1, 0)
		if len(ra.Ops) != len(rb.Ops) {
			t.Fatal("lengths differ")
		}
		for j := range ra.Ops {
			if ra.Ops[j] != rb.Ops[j] {
				t.Fatalf("txn %d op %d differs: %+v vs %+v", i, j, ra.Ops[j], rb.Ops[j])
			}
		}
	}
}

func TestMicroSkewHitsHotKeys(t *testing.T) {
	part := fakePart{n: 1, rows: map[storage.TableID]int64{1: 10000}}
	m := NewMicro(MicroConfig{Table: 1, GlobalRows: 10000, RowsPerTxn: 2, ZipfS: 0.99, Seed: 13}, part)
	hot := 0
	const txns = 2000
	for i := 0; i < txns; i++ {
		for _, op := range m.Next(0, 0).Ops {
			if op.Key < 100 {
				hot++
			}
		}
	}
	if frac := float64(hot) / float64(2*txns); frac < 0.4 {
		t.Errorf("hot-key fraction %.2f too low for s=0.99", frac)
	}
}

// TestMicroMatchesReference drives Micro side by side with refMicro, the
// map-based generator it replaced, over seeds, skews, multisite fractions
// and request sizes, on a large table and on one whose partitions (5 rows)
// and whole range (20 rows) are smaller than most requests, so the
// duplicate a draw accepts after eight tries is exercised. Every request of
// every (instance, worker) stream must be equal, op for op.
func TestMicroMatchesReference(t *testing.T) {
	dups := 0
	for _, rows := range []int64{8000, 20} {
		part := fakePart{n: 4, rows: map[storage.TableID]int64{1: rows}}
		for seed := int64(1); seed <= 3; seed++ {
			for _, s := range []float64{0, 0.5, 0.99} {
				for _, pct := range []float64{0, 0.2, 1} {
					for _, n := range []int{1, 10, 64} {
						cfg := MicroConfig{Table: 1, GlobalRows: rows, RowsPerTxn: n,
							Write: seed%2 == 0, PctMultisite: pct, ZipfS: s, Seed: seed}
						got, want := NewMicro(cfg, part), newRefMicro(cfg, part)
						for i := 0; i < 120; i++ {
							inst, worker := engine.InstanceID(i%4), i/4%3
							g, w := got.Next(inst, worker), want.Next(inst, worker)
							if !slices.Equal(g.Ops, w.Ops) {
								t.Fatalf("rows=%d %+v request %d (%d,%d):\n got %v\nwant %v", rows, cfg, i, inst, worker, g.Ops, w.Ops)
							}
							for j := range g.Ops {
								if drawn(g.Ops[:j], g.Ops[j].Key) {
									dups++
								}
							}
						}
					}
				}
			}
		}
	}
	if dups == 0 {
		t.Error("no request held a duplicate key: the accept-after-eight-tries path never ran")
	}
}

func TestTPCCTableSetSizes(t *testing.T) {
	ts := MixTableSet(24, PaymentOnly(), SpecSizing())
	if len(ts) != 4 {
		t.Fatal("want 4 tables")
	}
	if ts[0].Rows != 24 || ts[1].Rows != 240 || ts[2].Rows != 24*30000 {
		t.Errorf("table sizes wrong: %+v", ts)
	}
}

func TestPaymentHomeWarehouseIsLocal(t *testing.T) {
	rows := map[storage.TableID]int64{
		TPCCWarehouse: 24, TPCCDistrict: 240, TPCCCustomer: 720000, TPCCHistory: 72000,
	}
	part := fakePart{n: 4, rows: rows}
	g := NewPayment(TPCCConfig{Warehouses: 24, RemotePct: 0, Seed: 17}, part)
	for inst := 0; inst < 4; inst++ {
		lo, n := part.Range(TPCCWarehouse, inst)
		for i := 0; i < 100; i++ {
			req := g.Next(engine.InstanceID(inst), 0)
			if len(req.Ops) != 4 {
				t.Fatalf("payment has %d ops", len(req.Ops))
			}
			w := req.Ops[0]
			if w.Table != TPCCWarehouse || w.Kind != engine.OpUpdate {
				t.Fatal("first op must update warehouse")
			}
			if w.Key < lo || w.Key >= lo+n {
				t.Fatalf("home warehouse %d not local to instance %d", w.Key, inst)
			}
			d := req.Ops[1]
			if d.Key/DistrictsPerWarehouse != w.Key {
				t.Fatalf("district %d not in warehouse %d", d.Key, w.Key)
			}
			if req.Ops[3].Kind != engine.OpInsert || req.Ops[3].Table != TPCCHistory {
				t.Fatal("last op must insert history")
			}
			// RemotePct 0: customer must be in the home warehouse.
			c := req.Ops[2]
			if c.Key/(DistrictsPerWarehouse*CustomersPerDistrict) != w.Key {
				t.Fatalf("customer %d not in home warehouse %d despite RemotePct=0", c.Key, w.Key)
			}
		}
	}
}

func TestPaymentRemoteCustomers(t *testing.T) {
	rows := map[storage.TableID]int64{
		TPCCWarehouse: 24, TPCCDistrict: 240, TPCCCustomer: 720000, TPCCHistory: 72000,
	}
	part := fakePart{n: 24, rows: rows}
	g := NewPayment(TPCCConfig{Warehouses: 24, RemotePct: 0.15, Seed: 19}, part)
	remote := 0
	const txns = 3000
	for i := 0; i < txns; i++ {
		req := g.Next(3, 0)
		w := req.Ops[0].Key
		cw := req.Ops[2].Key / (DistrictsPerWarehouse * CustomersPerDistrict)
		if cw != w {
			remote++
		}
	}
	frac := float64(remote) / txns
	if math.Abs(frac-0.15) > 0.03 {
		t.Errorf("remote customer fraction = %.3f, want ~0.15", frac)
	}
}
