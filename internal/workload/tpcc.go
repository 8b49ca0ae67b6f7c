package workload

import (
	"islands/internal/engine"
	"islands/internal/storage"
)

// TPC-C: all nine tables of the benchmark, sized per the specification and
// range-partitioned by warehouse exactly as the paper partitions the
// benchmark across instances. The full transaction mix (NewOrder, Payment,
// OrderStatus, Delivery, StockLevel at 45/43/4/4/4) is generated by Mix;
// Payment-only is one point in the mix space and keeps the historical
// request stream bit-for-bit (see NewPayment).
const (
	TPCCWarehouse storage.TableID = 10
	TPCCDistrict  storage.TableID = 11
	TPCCCustomer  storage.TableID = 12
	TPCCHistory   storage.TableID = 13
	TPCCItem      storage.TableID = 14
	TPCCStock     storage.TableID = 15
	TPCCOrder     storage.TableID = 16
	TPCCNewOrder  storage.TableID = 17
	TPCCOrderLine storage.TableID = 18

	DistrictsPerWarehouse = 10
	CustomersPerDistrict  = 3000

	// NewOrder line-item counts (spec: uniform 5..15).
	MinOrderLines = 5
	MaxOrderLines = 15

	// StockLevelOrders is how many recent orders a StockLevel transaction
	// examines (spec: 20). One order line (and its stock row) is sampled per
	// order instead of the full join, keeping the read set proportional.
	StockLevelOrders = 20
)

// Row widths approximate the TPC-C schema's record sizes.
const (
	warehouseRowBytes = 96
	districtRowBytes  = 102
	customerRowBytes  = 655
	historyRowBytes   = 46
	itemRowBytes      = 82
	stockRowBytes     = 306
	orderRowBytes     = 24
	newOrderRowBytes  = 16 // spec row is 8 bytes; 16 is the storage minimum (key + version)
	orderLineRowBytes = 54
)

// TxnKind names one TPC-C transaction type.
type TxnKind uint8

// The five transactions of the standard mix.
const (
	TxnNewOrder TxnKind = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
	NumTxnKinds
)

var txnNames = [NumTxnKinds]string{"neworder", "payment", "orderstatus", "delivery", "stocklevel"}

func (k TxnKind) String() string {
	if int(k) < len(txnNames) {
		return txnNames[k]
	}
	return "unknown"
}

// MixWeights are the relative frequencies of the five transactions. They
// need not sum to 1; the generator normalizes.
type MixWeights [NumTxnKinds]float64

// StandardMix is the TPC-C specification mix: 45% NewOrder, 43% Payment,
// 4% each of OrderStatus, Delivery, StockLevel.
func StandardMix() MixWeights {
	return MixWeights{TxnNewOrder: 0.45, TxnPayment: 0.43, TxnOrderStatus: 0.04, TxnDelivery: 0.04, TxnStockLevel: 0.04}
}

// PaymentOnly is the historical single-transaction mix of the early figures.
func PaymentOnly() MixWeights { return MixWeights{TxnPayment: 1} }

// single returns the only active kind, or -1 if several kinds have weight.
func (w MixWeights) single() int {
	found := -1
	for k, wt := range w {
		if wt <= 0 {
			continue
		}
		if found >= 0 {
			return -1
		}
		found = k
	}
	return found
}

// Sizing scales the per-warehouse table cardinalities. The zero value means
// SpecSizing; experiments shrink rows (like Figure 14 scales the
// microbenchmark dataset) while key derivation stays consistent.
type Sizing struct {
	CustomersPerDistrict int64
	OrdersPerDistrict    int64
	NewOrdersPerDistrict int64
	Items                int64 // item catalog size; stock rows per warehouse
	OrderLinesPerOrder   int64
}

// SpecSizing returns the TPC-C specification cardinalities (initial order
// lines fixed at the mean 10 per order).
func SpecSizing() Sizing {
	return Sizing{
		CustomersPerDistrict: CustomersPerDistrict,
		OrdersPerDistrict:    3000,
		NewOrdersPerDistrict: 900,
		Items:                100000,
		OrderLinesPerOrder:   10,
	}
}

// Scaled divides the row cardinalities by f (minimum 1 row each); the
// order-line fanout is preserved so transaction shapes do not change.
func (s Sizing) Scaled(f int64) Sizing {
	div := func(v int64) int64 {
		v /= f
		if v < 1 {
			v = 1
		}
		return v
	}
	s.CustomersPerDistrict = div(s.CustomersPerDistrict)
	s.OrdersPerDistrict = div(s.OrdersPerDistrict)
	s.NewOrdersPerDistrict = div(s.NewOrdersPerDistrict)
	s.Items = div(s.Items)
	return s
}

// orDefault fills unset (or invalid non-positive) fields from the
// specification sizing, so a partially-populated Sizing scales only the
// fields it names.
func (s Sizing) orDefault() Sizing {
	d := SpecSizing()
	if s.CustomersPerDistrict <= 0 {
		s.CustomersPerDistrict = d.CustomersPerDistrict
	}
	if s.OrdersPerDistrict <= 0 {
		s.OrdersPerDistrict = d.OrdersPerDistrict
	}
	if s.NewOrdersPerDistrict <= 0 {
		s.NewOrdersPerDistrict = d.NewOrdersPerDistrict
	}
	if s.Items <= 0 {
		s.Items = d.Items
	}
	if s.OrderLinesPerOrder <= 0 {
		s.OrderLinesPerOrder = d.OrderLinesPerOrder
	}
	return s
}

// tableNeeds maps each transaction kind to the tables its generator touches.
var tableNeeds = [NumTxnKinds][]storage.TableID{
	TxnNewOrder:    {TPCCWarehouse, TPCCDistrict, TPCCCustomer, TPCCItem, TPCCStock, TPCCOrder, TPCCNewOrder, TPCCOrderLine},
	TxnPayment:     {TPCCWarehouse, TPCCDistrict, TPCCCustomer, TPCCHistory},
	TxnOrderStatus: {TPCCCustomer, TPCCOrder, TPCCOrderLine},
	TxnDelivery:    {TPCCCustomer, TPCCNewOrder, TPCCOrder, TPCCOrderLine},
	TxnStockLevel:  {TPCCDistrict, TPCCStock, TPCCOrderLine},
}

// MixTableSet builds the table declarations a mix needs for w warehouses:
// the union of the active transactions' tables, in canonical order. The
// home-warehouse draw partitions by warehouse, so the warehouse and district
// tables are always declared. A Payment-only mix yields exactly the four
// historical Payment tables. The result is ready for core.Config.Tables.
func MixTableSet(w int, weights MixWeights, sizing Sizing) []storage.TableDecl {
	s := sizing.orDefault()
	need := map[storage.TableID]bool{TPCCWarehouse: true, TPCCDistrict: true}
	for k, wt := range weights {
		if wt <= 0 {
			continue
		}
		for _, id := range tableNeeds[k] {
			need[id] = true
		}
	}
	wr := int64(w)
	all := []storage.TableDecl{
		{ID: TPCCWarehouse, Name: "warehouse", RowBytes: warehouseRowBytes, Rows: wr},
		{ID: TPCCDistrict, Name: "district", RowBytes: districtRowBytes, Rows: wr * DistrictsPerWarehouse},
		{ID: TPCCCustomer, Name: "customer", RowBytes: customerRowBytes, Rows: wr * DistrictsPerWarehouse * s.CustomersPerDistrict},
		{ID: TPCCHistory, Name: "history", RowBytes: historyRowBytes, Rows: wr * DistrictsPerWarehouse * s.CustomersPerDistrict / 10},
		{ID: TPCCItem, Name: "item", RowBytes: itemRowBytes, Rows: s.Items},
		{ID: TPCCStock, Name: "stock", RowBytes: stockRowBytes, Rows: wr * s.Items},
		{ID: TPCCOrder, Name: "order", RowBytes: orderRowBytes, Rows: wr * DistrictsPerWarehouse * s.OrdersPerDistrict},
		{ID: TPCCNewOrder, Name: "neworder", RowBytes: newOrderRowBytes, Rows: wr * DistrictsPerWarehouse * s.NewOrdersPerDistrict},
		{ID: TPCCOrderLine, Name: "orderline", RowBytes: orderLineRowBytes, Rows: wr * DistrictsPerWarehouse * s.OrdersPerDistrict * s.OrderLinesPerOrder},
	}
	out := make([]storage.TableDecl, 0, len(all))
	for _, t := range all {
		if need[t.ID] {
			if t.Rows < 1 {
				t.Rows = 1
			}
			out = append(out, t)
		}
	}
	return out
}

// MixConfig parameterizes the full-mix generator.
type MixConfig struct {
	Warehouses int
	// Weights selects the transaction mix; zero value panics (use
	// StandardMix or PaymentOnly).
	Weights MixWeights
	// RemotePct is the probability the paying customer belongs to a remote
	// warehouse (15% per the TPC-C specification). The paper's Figure 7
	// variant sets it to 0: perfectly partitionable.
	RemotePct float64
	// RemoteItemPct is the per-line probability a NewOrder item is supplied
	// by a remote warehouse (1% per the specification): the source of the
	// cross-warehouse stock updates the paper's TPC-C results exercise.
	RemoteItemPct float64
	// Sizing scales table cardinalities; zero value = SpecSizing.
	Sizing Sizing
	Seed   int64
}

// TPCCConfig parameterizes the historical Payment-only generator.
type TPCCConfig struct {
	Warehouses int
	RemotePct  float64
	Seed       int64
}

// mixStream is one (instance, worker) request stream: its generator plus the
// reusable op buffer (the worker consumes a request fully — commit or
// retry-to-commit — before asking for the next one, so per-stream reuse is
// safe; the engine copies whatever it keeps).
type mixStream struct {
	src  source
	ops  []engine.Op
	kind TxnKind // kind of the most recent Next (for trace recording)
}

func (st *mixStream) add(table storage.TableID, key int64, kind engine.OpKind) {
	st.ops = append(st.ops, engine.Op{Table: table, Key: key, Kind: kind})
}

// Mix generates the TPC-C transaction mix. It is deterministic per
// (instance, worker) stream: workers draw home warehouses from the
// submitting instance's partition (clients connect to the instance that
// owns their warehouse, as in the paper's setup), so every transaction is
// home-local except Payment's remote customers and NewOrder's remote stock
// updates. Streams of different instances may be driven concurrently.
type Mix struct {
	cfg    MixConfig
	sizing Sizing
	part   PartitionInfo
	// streams is indexed by instance, then worker. Only the kernel
	// partition that runs an instance calls Next for it, so an instance's
	// row grows without a lock.
	streams [][]*mixStream
	cum     [NumTxnKinds]float64 // normalized cumulative weights
	single  int                  // the only active kind, or -1
	maxOps  int                  // the longest request an active kind can make
}

// NewMix builds the generator.
func NewMix(cfg MixConfig, part PartitionInfo) *Mix {
	if cfg.Warehouses < 1 {
		panic("workload: Mix needs >= 1 warehouse")
	}
	var total float64
	for _, w := range cfg.Weights {
		if w < 0 {
			panic("workload: negative mix weight")
		}
		total += w
	}
	if total <= 0 {
		panic("workload: mix needs at least one positive weight")
	}
	g := &Mix{
		cfg:     cfg,
		sizing:  cfg.Sizing.orDefault(),
		part:    part,
		streams: make([][]*mixStream, part.Instances()),
		single:  cfg.Weights.single(),
	}
	acc := 0.0
	for k, w := range cfg.Weights {
		acc += w / total
		g.cum[k] = acc
		if w > 0 {
			g.maxOps = max(g.maxOps, maxOps(TxnKind(k), g.sizing))
		}
	}
	g.cum[NumTxnKinds-1] = 1 // guard against rounding
	return g
}

// NewPayment builds the historical Payment-only generator. The request
// stream is bit-for-bit what the pre-mix Payment generator produced: a
// single-kind mix skips the transaction-selection draw, so the per-stream
// RNG consumption sequence is unchanged.
func NewPayment(cfg TPCCConfig, part PartitionInfo) *Mix {
	return NewMix(MixConfig{
		Warehouses: cfg.Warehouses,
		Weights:    PaymentOnly(),
		RemotePct:  cfg.RemotePct,
		Seed:       cfg.Seed,
	}, part)
}

// stream returns the (inst, worker) stream, creating it on first use.
func (g *Mix) stream(inst engine.InstanceID, worker int) *mixStream {
	streams := g.streams[inst]
	if worker < len(streams) && streams[worker] != nil {
		return streams[worker]
	}
	st := &mixStream{ops: make([]engine.Op, 0, g.maxOps)}
	st.src.seed(g.cfg.Seed + int64(inst)*40503 + int64(worker)*9973)
	g.streams[inst] = placeStream(streams, worker, st)
	return st
}

// maxOps returns the most ops one request of kind can hold at sizing s, what
// the generator below adds at most: a stream's op buffer is allocated once at
// the largest of its mix's kinds and never grows.
func maxOps(kind TxnKind, s Sizing) int {
	switch kind {
	case TxnNewOrder: // five rows, then an item, a stock row and an order line per line
		return 5 + 3*MaxOrderLines
	case TxnPayment:
		return 4
	case TxnOrderStatus: // customer, order, its lines
		return 2 + int(s.OrderLinesPerOrder)
	case TxnDelivery: // per district: new-order, order, its lines, customer
		return DistrictsPerWarehouse * (3 + int(s.OrderLinesPerOrder))
	case TxnStockLevel: // district, then an order line and a stock row per order
		return 1 + 2*StockLevelOrders
	}
	return 0
}

// localWarehouses returns the warehouse range of an instance.
func (g *Mix) localWarehouses(inst int) (base, count int64) {
	base, count = g.part.Range(TPCCWarehouse, inst)
	if count < 1 {
		count = 1
	}
	return base, count
}

// localItem maps an item id onto the submitting instance's item partition.
// The item table is read-only and would be replicated to every instance in
// a real shared-nothing deployment; modulo-mapping the catalog onto the
// local range models that replication while keeping every key inside the
// declared table.
func (g *Mix) localItem(inst int, item int64) int64 {
	base, rows := g.part.Range(TPCCItem, inst)
	if rows < 1 {
		rows = 1
	}
	return base + item%rows
}

// otherWarehouse draws a warehouse different from w, uniformly.
func otherWarehouse(rng *source, w int64, warehouses int) int64 {
	for {
		o := rng.Int63n(int64(warehouses))
		if o != w {
			return o
		}
	}
}

// Next implements engine.RequestSource. The returned request's op slice is
// valid until the same stream's next call (the closed-loop worker finishes
// one request before requesting the next).
func (g *Mix) Next(inst engine.InstanceID, worker int) engine.Request {
	st := g.stream(inst, worker)
	rng := &st.src
	st.ops = st.ops[:0]

	kind := TxnKind(g.single)
	if g.single < 0 {
		u := rng.Float64()
		for k := TxnKind(0); k < NumTxnKinds; k++ {
			if u < g.cum[k] {
				kind = k
				break
			}
		}
	}

	st.kind = kind

	base, localW := g.localWarehouses(int(inst))
	w := base + rng.Int63n(localW)

	switch kind {
	case TxnNewOrder:
		g.newOrder(st, inst, w)
	case TxnPayment:
		g.payment(st, inst, w)
	case TxnOrderStatus:
		g.orderStatus(st, w)
	case TxnDelivery:
		g.delivery(st, w)
	case TxnStockLevel:
		g.stockLevel(st, w)
	}
	return engine.Request{Ops: st.ops}
}

// LastKind returns the TxnKind of the stream's most recent Next, for trace
// recorders labeling records with their transaction kind (trace.KindReporter).
func (g *Mix) LastKind(inst engine.InstanceID, worker int) uint8 {
	return uint8(g.stream(inst, worker).kind)
}

// Key derivations: every per-warehouse table is laid out warehouse-major, so
// partition ranges that align with warehouse boundaries keep home-warehouse
// keys home-local.

func (g *Mix) districtKey(w, d int64) int64 { return w*DistrictsPerWarehouse + d }

func (g *Mix) customerKey(w, d, c int64) int64 {
	return g.districtKey(w, d)*g.sizing.CustomersPerDistrict + c
}

func (g *Mix) orderKey(w, d, o int64) int64 {
	return g.districtKey(w, d)*g.sizing.OrdersPerDistrict + o
}

func (g *Mix) orderLineKey(w, d, o, l int64) int64 {
	return g.orderKey(w, d, o)*g.sizing.OrderLinesPerOrder + l
}

func (g *Mix) newOrderKey(w, d, n int64) int64 {
	return g.districtKey(w, d)*g.sizing.NewOrdersPerDistrict + n
}

func (g *Mix) stockKey(w, i int64) int64 { return w*g.sizing.Items + i }

// newOrder: read the warehouse tax, bump the district's next-order id, read
// the customer, insert the order and its new-order entry, then per line
// read the item and update the supplying warehouse's stock (remote with
// probability RemoteItemPct) and insert the order line. Inserts go to the
// home partition; the engine assigns fresh keys on the owning instance.
func (g *Mix) newOrder(st *mixStream, inst engine.InstanceID, w int64) {
	rng := &st.src
	s := g.sizing
	d := rng.Int63n(DistrictsPerWarehouse)
	c := rng.Int63n(s.CustomersPerDistrict)
	olCnt := MinOrderLines + rng.Int63n(MaxOrderLines-MinOrderLines+1)

	st.add(TPCCWarehouse, w, engine.OpRead)
	st.add(TPCCDistrict, g.districtKey(w, d), engine.OpUpdate)
	st.add(TPCCCustomer, g.customerKey(w, d, c), engine.OpRead)
	orderBase, _ := g.part.Range(TPCCOrder, int(inst))
	st.add(TPCCOrder, orderBase, engine.OpInsert)
	noBase, _ := g.part.Range(TPCCNewOrder, int(inst))
	st.add(TPCCNewOrder, noBase, engine.OpInsert)
	olBase, _ := g.part.Range(TPCCOrderLine, int(inst))
	for l := int64(0); l < olCnt; l++ {
		item := rng.Int63n(s.Items)
		sw := w
		if g.cfg.Warehouses > 1 && rng.Float64() < g.cfg.RemoteItemPct {
			sw = otherWarehouse(rng, w, g.cfg.Warehouses)
		}
		st.add(TPCCItem, g.localItem(int(inst), item), engine.OpRead)
		st.add(TPCCStock, g.stockKey(sw, item), engine.OpUpdate)
		st.add(TPCCOrderLine, olBase, engine.OpInsert)
	}
}

// payment: update the warehouse and district year-to-date totals, update
// the customer's balance, and insert a history record at the home
// warehouse. This branch preserves the historical generator's RNG sequence
// exactly (fingerprint compatibility of the Payment-only experiments).
func (g *Mix) payment(st *mixStream, inst engine.InstanceID, w int64) {
	rng := &st.src
	s := g.sizing
	d := rng.Int63n(DistrictsPerWarehouse)

	// Customer: 85% home district, 15% (RemotePct) a random district of a
	// random other warehouse.
	cw, cd := w, d
	if g.cfg.Warehouses > 1 && rng.Float64() < g.cfg.RemotePct {
		cw = otherWarehouse(rng, w, g.cfg.Warehouses)
		cd = rng.Int63n(DistrictsPerWarehouse)
	}
	c := rng.Int63n(s.CustomersPerDistrict)

	// History insert goes to the home warehouse's partition; any key in the
	// partition selects it (inserts allocate their own key).
	historyBase, _ := g.part.Range(TPCCHistory, int(inst))

	st.add(TPCCWarehouse, w, engine.OpUpdate)
	st.add(TPCCDistrict, g.districtKey(w, d), engine.OpUpdate)
	st.add(TPCCCustomer, g.customerKey(cw, cd, c), engine.OpUpdate)
	st.add(TPCCHistory, historyBase, engine.OpInsert)
}

// orderStatus: read the customer, their most recent order, and its lines.
// Read-only and home-local.
func (g *Mix) orderStatus(st *mixStream, w int64) {
	rng := &st.src
	s := g.sizing
	d := rng.Int63n(DistrictsPerWarehouse)
	c := rng.Int63n(s.CustomersPerDistrict)
	o := rng.Int63n(s.OrdersPerDistrict)

	st.add(TPCCCustomer, g.customerKey(w, d, c), engine.OpRead)
	st.add(TPCCOrder, g.orderKey(w, d, o), engine.OpRead)
	for l := int64(0); l < s.OrderLinesPerOrder; l++ {
		st.add(TPCCOrderLine, g.orderLineKey(w, d, o, l), engine.OpRead)
	}
}

// delivery: the deferred batch — for every district of the home warehouse,
// take the oldest new-order (modeled as an update; the engine has no
// deletes), stamp the order's carrier, stamp its lines' delivery dates, and
// credit the customer. Update-heavy and home-local.
func (g *Mix) delivery(st *mixStream, w int64) {
	rng := &st.src
	s := g.sizing
	for d := int64(0); d < DistrictsPerWarehouse; d++ {
		n := rng.Int63n(s.NewOrdersPerDistrict)
		st.add(TPCCNewOrder, g.newOrderKey(w, d, n), engine.OpUpdate)
		o := rng.Int63n(s.OrdersPerDistrict)
		st.add(TPCCOrder, g.orderKey(w, d, o), engine.OpUpdate)
		for l := int64(0); l < s.OrderLinesPerOrder; l++ {
			st.add(TPCCOrderLine, g.orderLineKey(w, d, o, l), engine.OpUpdate)
		}
		c := rng.Int63n(s.CustomersPerDistrict)
		st.add(TPCCCustomer, g.customerKey(w, d, c), engine.OpUpdate)
	}
}

// stockLevel: read the district, then sample one line of each of the last
// StockLevelOrders orders and the corresponding stock row. Read-only and
// home-local; the heaviest read transaction, as in the specification.
func (g *Mix) stockLevel(st *mixStream, w int64) {
	rng := &st.src
	s := g.sizing
	d := rng.Int63n(DistrictsPerWarehouse)
	st.add(TPCCDistrict, g.districtKey(w, d), engine.OpRead)
	for k := 0; k < StockLevelOrders; k++ {
		o := rng.Int63n(s.OrdersPerDistrict)
		l := rng.Int63n(s.OrderLinesPerOrder)
		st.add(TPCCOrderLine, g.orderLineKey(w, d, o, l), engine.OpRead)
		item := rng.Int63n(s.Items)
		st.add(TPCCStock, g.stockKey(w, item), engine.OpRead)
	}
}
