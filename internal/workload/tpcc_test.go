package workload

import (
	"math"
	"math/rand"
	"testing"

	"islands/internal/engine"
	"islands/internal/storage"
)

// mixPart builds a fakePart over the mix's declared tables.
func mixPart(n, warehouses int, weights MixWeights, sizing Sizing) fakePart {
	rows := make(map[storage.TableID]int64)
	for _, t := range MixTableSet(warehouses, weights, sizing) {
		rows[t.ID] = t.Rows
	}
	return fakePart{n: n, rows: rows}
}

// classify maps a generated request back to its transaction kind via the
// mix's distinctive first op (each kind opens on a different table/op pair).
func classify(t *testing.T, req engine.Request) TxnKind {
	t.Helper()
	if len(req.Ops) == 0 {
		t.Fatal("empty request")
	}
	op := req.Ops[0]
	switch {
	case op.Table == TPCCWarehouse && op.Kind == engine.OpRead:
		return TxnNewOrder
	case op.Table == TPCCWarehouse && op.Kind == engine.OpUpdate:
		return TxnPayment
	case op.Table == TPCCCustomer && op.Kind == engine.OpRead:
		return TxnOrderStatus
	case op.Table == TPCCNewOrder && op.Kind == engine.OpUpdate:
		return TxnDelivery
	case op.Table == TPCCDistrict && op.Kind == engine.OpRead:
		return TxnStockLevel
	}
	t.Fatalf("unclassifiable first op %+v", op)
	return 0
}

func TestMixTableSetPaymentOnlyUnchanged(t *testing.T) {
	// The Payment-only declaration set is the historical four tables with
	// the historical sizes: the fingerprint of fig3/fig7 depends on it.
	ts := MixTableSet(24, PaymentOnly(), SpecSizing())
	want := []storage.TableDecl{
		{ID: TPCCWarehouse, Name: "warehouse", RowBytes: 96, Rows: 24},
		{ID: TPCCDistrict, Name: "district", RowBytes: 102, Rows: 240},
		{ID: TPCCCustomer, Name: "customer", RowBytes: 655, Rows: 720000},
		{ID: TPCCHistory, Name: "history", RowBytes: 46, Rows: 72000},
	}
	if len(ts) != len(want) {
		t.Fatalf("table count = %d, want %d", len(ts), len(want))
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("table %d = %+v, want %+v", i, ts[i], want[i])
		}
	}
}

func TestSizingPartialDefaults(t *testing.T) {
	// A partially-populated Sizing fills the unset fields from the spec
	// instead of generating over zero-sized ranges.
	cfg := MixConfig{
		Warehouses: 2, Weights: StandardMix(),
		Sizing: Sizing{Items: 500}, Seed: 1,
	}
	part := mixPart(2, cfg.Warehouses, cfg.Weights, cfg.Sizing)
	g := NewMix(cfg, part)
	if g.sizing.Items != 500 || g.sizing.CustomersPerDistrict != CustomersPerDistrict {
		t.Fatalf("partial sizing resolved to %+v", g.sizing)
	}
	for i := 0; i < 50; i++ {
		if req := g.Next(0, 0); len(req.Ops) == 0 {
			t.Fatal("empty request")
		}
	}
}

func TestMixTableSetFullMix(t *testing.T) {
	ts := MixTableSet(4, StandardMix(), SpecSizing())
	if len(ts) != 9 {
		t.Fatalf("full mix declares %d tables, want 9", len(ts))
	}
	byID := map[storage.TableID]storage.TableDecl{}
	for _, tab := range ts {
		byID[tab.ID] = tab
	}
	if byID[TPCCStock].Rows != 4*100000 {
		t.Errorf("stock rows = %d, want 400000", byID[TPCCStock].Rows)
	}
	if byID[TPCCOrderLine].Rows != 4*10*3000*10 {
		t.Errorf("orderline rows = %d", byID[TPCCOrderLine].Rows)
	}
	if byID[TPCCItem].Rows != 100000 {
		t.Errorf("item rows = %d, want 100000 (catalog is warehouse-independent)", byID[TPCCItem].Rows)
	}
}

// TestPaymentStreamMatchesHistoricalGenerator replays the pre-mix Payment
// generator's algorithm on a raw RNG and checks the mix produces the same
// requests: the Payment-only fingerprint compatibility contract at the unit
// level.
func TestPaymentStreamMatchesHistoricalGenerator(t *testing.T) {
	const warehouses, seed = 16, 23
	part := mixPart(4, warehouses, PaymentOnly(), SpecSizing())
	g := NewPayment(TPCCConfig{Warehouses: warehouses, RemotePct: 0.15, Seed: seed}, part)

	for _, stream := range []struct {
		inst   engine.InstanceID
		worker int
	}{{0, 0}, {2, 1}, {3, 7}} {
		rng := rand.New(rand.NewSource(seed + int64(stream.inst)*40503 + int64(stream.worker)*9973))
		for i := 0; i < 200; i++ {
			base, localW := part.Range(TPCCWarehouse, int(stream.inst))
			if localW < 1 {
				localW = 1
			}
			w := base + rng.Int63n(localW)
			d := rng.Int63n(DistrictsPerWarehouse)
			cw, cd := w, d
			if warehouses > 1 && rng.Float64() < 0.15 {
				for {
					cw = rng.Int63n(warehouses)
					if cw != w {
						break
					}
				}
				cd = rng.Int63n(DistrictsPerWarehouse)
			}
			c := rng.Int63n(CustomersPerDistrict)
			historyBase, _ := part.Range(TPCCHistory, int(stream.inst))
			want := []engine.Op{
				{Table: TPCCWarehouse, Key: w, Kind: engine.OpUpdate},
				{Table: TPCCDistrict, Key: w*DistrictsPerWarehouse + d, Kind: engine.OpUpdate},
				{Table: TPCCCustomer, Key: (cw*DistrictsPerWarehouse+cd)*CustomersPerDistrict + c, Kind: engine.OpUpdate},
				{Table: TPCCHistory, Key: historyBase, Kind: engine.OpInsert},
			}
			got := g.Next(stream.inst, stream.worker)
			if len(got.Ops) != len(want) {
				t.Fatalf("txn %d: %d ops, want %d", i, len(got.Ops), len(want))
			}
			for j := range want {
				if got.Ops[j] != want[j] {
					t.Fatalf("stream (%d,%d) txn %d op %d: got %+v, want %+v",
						stream.inst, stream.worker, i, j, got.Ops[j], want[j])
				}
			}
		}
	}
}

func TestMixDeterministicPerStream(t *testing.T) {
	cfg := MixConfig{
		Warehouses: 8, Weights: StandardMix(),
		RemotePct: 0.15, RemoteItemPct: 0.01,
		Sizing: SpecSizing().Scaled(10), Seed: 31,
	}
	part := mixPart(4, cfg.Warehouses, cfg.Weights, cfg.Sizing)
	a, b := NewMix(cfg, part), NewMix(cfg, part)
	for _, stream := range []struct {
		inst   engine.InstanceID
		worker int
	}{{0, 0}, {1, 3}, {3, 0}} {
		for i := 0; i < 300; i++ {
			ra, rb := a.Next(stream.inst, stream.worker), b.Next(stream.inst, stream.worker)
			if len(ra.Ops) != len(rb.Ops) {
				t.Fatalf("stream (%d,%d) txn %d: lengths %d vs %d",
					stream.inst, stream.worker, i, len(ra.Ops), len(rb.Ops))
			}
			for j := range ra.Ops {
				if ra.Ops[j] != rb.Ops[j] {
					t.Fatalf("stream (%d,%d) txn %d op %d differs: %+v vs %+v",
						stream.inst, stream.worker, i, j, ra.Ops[j], rb.Ops[j])
				}
			}
		}
	}
	// Different streams must not repeat each other.
	r0, r1 := a.Next(0, 0), a.Next(0, 1)
	if len(r0.Ops) == len(r1.Ops) {
		same := true
		for j := range r0.Ops {
			if r0.Ops[j] != r1.Ops[j] {
				same = false
				break
			}
		}
		if same {
			t.Error("distinct worker streams produced identical requests")
		}
	}
}

func TestMixRatiosMatchWeights(t *testing.T) {
	cfg := MixConfig{
		Warehouses: 4, Weights: StandardMix(),
		RemotePct: 0.15, RemoteItemPct: 0.01,
		Sizing: SpecSizing().Scaled(100), Seed: 7,
	}
	part := mixPart(1, cfg.Warehouses, cfg.Weights, cfg.Sizing)
	g := NewMix(cfg, part)
	var counts [NumTxnKinds]int
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[classify(t, g.Next(0, 0))]++
	}
	want := [NumTxnKinds]float64{0.45, 0.43, 0.04, 0.04, 0.04}
	for k := TxnKind(0); k < NumTxnKinds; k++ {
		frac := float64(counts[k]) / draws
		// 100k draws: sigma < 0.0016 for every weight; 0.01 is > 6 sigma.
		if math.Abs(frac-want[k]) > 0.01 {
			t.Errorf("%v fraction = %.4f, want %.2f (+-0.01)", k, frac, want[k])
		}
	}
}

func TestMixNewOrderRemoteStockProbability(t *testing.T) {
	cfg := MixConfig{
		Warehouses: 24, Weights: MixWeights{TxnNewOrder: 1},
		RemoteItemPct: 0.01, Sizing: SpecSizing().Scaled(10), Seed: 41,
	}
	part := mixPart(24, cfg.Warehouses, cfg.Weights, cfg.Sizing)
	g := NewMix(cfg, part)
	lines, remote := 0, 0
	const txns = 20000
	for i := 0; i < txns; i++ {
		req := g.Next(5, 0)
		w := req.Ops[0].Key // warehouse read
		for _, op := range req.Ops {
			if op.Table != TPCCStock {
				continue
			}
			lines++
			if op.Key/cfg.Sizing.Items != w {
				remote++
			}
		}
	}
	frac := float64(remote) / float64(lines)
	if math.Abs(frac-0.01) > 0.004 {
		t.Errorf("remote stock fraction = %.4f over %d lines, want ~0.01", frac, lines)
	}
	// Line counts are uniform 5..15.
	if avg := float64(lines) / txns; avg < 9.5 || avg > 10.5 {
		t.Errorf("avg order lines = %.2f, want ~10", avg)
	}
}

func TestMixKeysWithinDeclaredRanges(t *testing.T) {
	cfg := MixConfig{
		Warehouses: 8, Weights: StandardMix(),
		RemotePct: 0.15, RemoteItemPct: 0.05,
		Sizing: SpecSizing().Scaled(10), Seed: 59,
	}
	tables := MixTableSet(cfg.Warehouses, cfg.Weights, cfg.Sizing)
	rows := make(map[storage.TableID]int64, len(tables))
	for _, tab := range tables {
		rows[tab.ID] = tab.Rows
	}
	part := fakePart{n: 4, rows: rows}
	g := NewMix(cfg, part)
	for inst := 0; inst < 4; inst++ {
		for worker := 0; worker < 2; worker++ {
			for i := 0; i < 500; i++ {
				req := g.Next(engine.InstanceID(inst), worker)
				for _, op := range req.Ops {
					n, declared := rows[op.Table]
					if !declared {
						t.Fatalf("op on undeclared table %d", op.Table)
					}
					if op.Key < 0 || op.Key >= n {
						t.Fatalf("table %d key %d outside [0,%d)", op.Table, op.Key, n)
					}
				}
			}
		}
	}
}

func TestMixDeliveryShape(t *testing.T) {
	cfg := MixConfig{
		Warehouses: 4, Weights: MixWeights{TxnDelivery: 1},
		Sizing: SpecSizing().Scaled(10), Seed: 3,
	}
	part := mixPart(4, cfg.Warehouses, cfg.Weights, cfg.Sizing)
	g := NewMix(cfg, part)
	req := g.Next(1, 0)
	perDistrict := int(2 + cfg.Sizing.OrderLinesPerOrder + 1)
	if len(req.Ops) != DistrictsPerWarehouse*perDistrict {
		t.Fatalf("delivery has %d ops, want %d", len(req.Ops), DistrictsPerWarehouse*perDistrict)
	}
	lo, n := part.Range(TPCCWarehouse, 1)
	for _, op := range req.Ops {
		if op.Kind != engine.OpUpdate {
			t.Fatalf("delivery op %+v is not an update", op)
		}
		if op.Table == TPCCNewOrder {
			w := op.Key / (DistrictsPerWarehouse * cfg.Sizing.NewOrdersPerDistrict)
			if w < lo || w >= lo+n {
				t.Fatalf("delivery touched warehouse %d outside [%d,%d)", w, lo, lo+n)
			}
		}
	}
}

func TestMixLocalOnlyWhenRemoteZero(t *testing.T) {
	// With both remote probabilities at zero the full mix is perfectly
	// partitionable: every key stays in the submitting instance's ranges.
	cfg := MixConfig{
		Warehouses: 8, Weights: StandardMix(),
		Sizing: SpecSizing().Scaled(10), Seed: 67,
	}
	part := mixPart(8, cfg.Warehouses, cfg.Weights, cfg.Sizing)
	g := NewMix(cfg, part)
	for inst := 0; inst < 8; inst++ {
		for i := 0; i < 200; i++ {
			req := g.Next(engine.InstanceID(inst), 0)
			for _, op := range req.Ops {
				lo, n := part.Range(op.Table, inst)
				if op.Key < lo || op.Key >= lo+n {
					t.Fatalf("inst %d: op %+v outside local range [%d,%d)", inst, op, lo, lo+n)
				}
			}
		}
	}
}

// TestMixStreamOpBufferNeverGrows: a stream's op buffer is allocated once,
// with the stream, at the longest request its mix's kinds can make, so no
// later Next allocates. The bound is tight: over 2,000 requests each mix
// makes one exactly that long (for the standard mix, a Delivery).
func TestMixStreamOpBufferNeverGrows(t *testing.T) {
	for _, sizing := range []Sizing{SpecSizing(), SpecSizing().Scaled(10), {OrderLinesPerOrder: 3}} {
		mixes := []MixWeights{StandardMix()}
		for k := range NumTxnKinds {
			var w MixWeights
			w[k] = 1
			mixes = append(mixes, w)
		}
		for _, weights := range mixes {
			cfg := MixConfig{Warehouses: 4, Weights: weights, RemotePct: 0.15, RemoteItemPct: 0.01,
				Sizing: sizing, Seed: 11}
			g := NewMix(cfg, mixPart(2, cfg.Warehouses, weights, sizing))
			first := g.Next(1, 0).Ops
			longest := len(first)
			allocs := testing.AllocsPerRun(1, func() {
				for range 2000 {
					ops := g.Next(1, 0).Ops
					longest = max(longest, len(ops))
					if cap(ops) != cap(first) || &ops[:1][0] != &first[:1][0] {
						t.Fatalf("%v %+v: op buffer moved (cap %d -> %d)", weights, sizing, cap(first), cap(ops))
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%v %+v: 2000 Nexts allocated %v objects, want 0", weights, sizing, allocs)
			}
			if cap(first) != longest {
				t.Errorf("%v %+v: op buffer cap %d, longest request %d; want equal", weights, sizing, cap(first), longest)
			}
		}
	}
}
