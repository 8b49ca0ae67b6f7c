package engine

import (
	"testing"

	"islands/internal/exec"
	"islands/internal/ipc"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/topology"
	"islands/internal/wal"
)

// rangePart is a minimal range partitioner for tests: rows/instances each.
type rangePart struct {
	instances int
	rows      int64
}

func (p rangePart) Locate(_ storage.TableID, key int64) (InstanceID, int64) {
	per := p.rows / int64(p.instances)
	iid := key / per
	if iid >= int64(p.instances) {
		iid = int64(p.instances) - 1
	}
	return InstanceID(iid), key - iid*per
}
func (p rangePart) Instances() int { return p.instances }

// fixedSource replays a list of requests, then repeats the last forever.
type fixedSource struct {
	reqs []Request
	pos  map[[2]int32]int
}

func newFixedSource(reqs ...Request) *fixedSource {
	return &fixedSource{reqs: reqs, pos: make(map[[2]int32]int)}
}

func (s *fixedSource) Next(inst InstanceID, worker int) Request {
	k := [2]int32{int32(inst), int32(worker)}
	i := s.pos[k]
	if i >= len(s.reqs) {
		i = len(s.reqs) - 1
	}
	s.pos[k]++
	return s.reqs[i]
}

// testDeployment builds n instances over the quad-socket machine with one
// table of `rows` global rows.
func testDeployment(k *sim.Kernel, n int, rows int64, locking bool) []*Instance {
	topo := topology.QuadSocket()
	model := mem.NewModel(topo)
	net := ipc.NewNetwork[Msg](k, topo, ipc.UnixSocket)
	part := rangePart{instances: n, rows: rows}
	parts := topology.IslandPartition(topo, n)
	instances := make([]*Instance, n)
	for i := 0; i < n; i++ {
		opts := DefaultOptions(TableSpec{ID: 1, Name: "rows", RowBytes: 250, LocalRows: rows / int64(n)})
		opts.Locking = locking
		opts.Latching = locking
		instances[i] = NewInstance(k, topo, model, net, InstanceID(i), parts[i], part, nil, opts)
	}
	for i := range instances {
		instances[i].Connect(instances)
	}
	return instances
}

func TestLocalReadOnlyTxnCommits(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	ins := testDeployment(k, 1, 2400, true)
	src := newFixedSource(Request{Ops: []Op{
		{Table: 1, Key: 10, Kind: OpRead},
		{Table: 1, Key: 20, Kind: OpRead},
	}})
	ins[0].StartWorkersOnly(src)
	k.RunFor(2 * sim.Millisecond)
	if ins[0].Stats.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if ins[0].Stats.Multisite != 0 {
		t.Error("single-instance txns classified multisite")
	}
	if ins[0].Wal().Appends != 0 {
		t.Error("read-only transactions wrote log records")
	}
}

func TestLocalUpdateTxnLogsAndFlushes(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	ins := testDeployment(k, 1, 2400, true)
	src := newFixedSource(Request{Ops: []Op{
		{Table: 1, Key: 5, Kind: OpUpdate},
	}})
	ins[0].StartWorkersOnly(src)
	k.RunFor(2 * sim.Millisecond)
	st := ins[0].Stats
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	w := ins[0].Wal()
	if w.Appends < 2*st.Committed {
		t.Errorf("Appends = %d, want >= 2 per committed txn (%d)", w.Appends, st.Committed)
	}
	if w.Flushes == 0 {
		t.Error("commits never forced the log")
	}
}

func TestUpdateActuallyUpdatesRow(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	ins := testDeployment(k, 1, 240, true)
	done := false
	k.Spawn("driver", func(p *sim.Proc) {
		ctx := exec.New(p, ins[0].Cores[0], ins[0].model, nil)
		reply := ins[0].net.NewEndpoint(ins[0].Cores[0])
		for i := 0; i < 3; i++ {
			ins[0].runTxn(ctx, Request{Ops: []Op{{Table: 1, Key: 7, Kind: OpUpdate}}}, reply)
		}
		// Verify the version counter advanced 3 times.
		txn := ins[0].newTxn(ctx, 999999, false)
		ts := ins[0].tables[1]
		rid, _ := ts.idx.Search(ctx, 7)
		pg := ins[0].bp.Fix(ctx, rid.Page)
		row, _ := pg.Get(rid.Slot)
		if v := storage.RowVersion(row); v != 3 {
			t.Errorf("row version = %d, want 3", v)
		}
		ins[0].bp.Unfix(ctx, pg, false)
		_ = txn
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("driver did not finish")
	}
}

func TestMultisiteReadOnlyUsesReadOnlyVote(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	ins := testDeployment(k, 4, 2400, true)
	// Key 10 is local to instance 0; key 1800 belongs to instance 3.
	src := newFixedSource(Request{Ops: []Op{
		{Table: 1, Key: 10, Kind: OpRead},
		{Table: 1, Key: 1800, Kind: OpRead},
	}})
	for _, in := range ins[1:] {
		in.Start(emptySource{per: 600})
	}
	ins[0].Start(src)
	k.RunFor(5 * sim.Millisecond)
	st := ins[0].Stats
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	if st.Multisite == 0 {
		t.Error("multisite txns not classified")
	}
	p3 := ins[3].Stats
	if p3.SubWork == 0 || p3.SubReadOnly != p3.SubWork {
		t.Errorf("participant: SubWork=%d SubReadOnly=%d, want all read-only", p3.SubWork, p3.SubReadOnly)
	}
	if p3.Prepares != 0 {
		t.Error("read-only participant got prepare messages")
	}
}

// emptySource keeps workers busy with cheap reads local to their own
// instance, so they never interfere with the instance under test.
type emptySource struct{ per int64 }

func (s emptySource) Next(inst InstanceID, _ int) Request {
	return Request{Ops: []Op{{Table: 1, Key: int64(inst) * s.per, Kind: OpRead}}}
}

func TestMultisiteUpdateRunsTwoPhaseCommit(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	ins := testDeployment(k, 4, 2400, true)
	src := newFixedSource(Request{Ops: []Op{
		{Table: 1, Key: 10, Kind: OpUpdate},
		{Table: 1, Key: 1800, Kind: OpUpdate},
	}})
	for _, in := range ins[1:] {
		in.Start(emptySource{per: 600})
	}
	ins[0].Start(src)
	k.RunFor(5 * sim.Millisecond)
	st := ins[0].Stats
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	p3 := ins[3].Stats
	if p3.Prepares == 0 {
		t.Error("writing participant never prepared")
	}
	// Participant log must contain prepare records; check via counters.
	if ins[3].Wal().Flushes == 0 {
		t.Error("participant never forced its log for prepare")
	}
	// The updated remote row must reflect the committed updates once all
	// in-flight work drains.
}

func TestDistributedUpdateDurableOnBothSides(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	topo := topology.QuadSocket()
	model := mem.NewModel(topo)
	net := ipc.NewNetwork[Msg](k, topo, ipc.UnixSocket)
	part := rangePart{instances: 2, rows: 240}
	parts := topology.IslandPartition(topo, 2)
	var ins [2]*Instance
	for i := 0; i < 2; i++ {
		opts := DefaultOptions(TableSpec{ID: 1, Name: "rows", RowBytes: 250, LocalRows: 120})
		opts.Wal.Retain = true
		ins[i] = NewInstance(k, topo, model, net, InstanceID(i), parts[i], part, nil, opts)
	}
	ins[0].Connect(ins[:])
	ins[1].Connect(ins[:])
	// Instance 1 runs its full thread set; its workers stay on local reads.
	ins[1].Start(emptySource{per: 120})
	var committed bool
	k.Spawn("driver", func(p *sim.Proc) {
		ctx := exec.New(p, ins[0].Cores[0], model, nil)
		reply := net.NewEndpoint(ins[0].Cores[0])
		ins[0].runTxn(ctx, Request{Ops: []Op{
			{Table: 1, Key: 3, Kind: OpUpdate},   // local
			{Table: 1, Key: 125, Kind: OpUpdate}, // remote (instance 1, local key 5)
		}}, reply)
		committed = true
	})
	k.RunFor(50 * sim.Millisecond)
	if !committed {
		t.Fatal("distributed update did not commit")
	}
	find := func(m *wal.Manager, typ wal.RecType) bool {
		for _, r := range m.Records() {
			if r.Type == typ {
				return true
			}
		}
		return false
	}
	if !find(ins[0].Wal(), wal.RecDistCommit) {
		t.Error("coordinator log missing dist-commit record")
	}
	if !find(ins[1].Wal(), wal.RecPrepare) || !find(ins[1].Wal(), wal.RecDistCommit) {
		t.Error("participant log missing prepare/commit records")
	}
	// Remote row version advanced.
	k.Spawn("verify", func(p *sim.Proc) {
		ctx := exec.New(p, ins[1].Cores[0], model, nil)
		tst := ins[1].tables[1]
		rid, _ := tst.idx.Search(ctx, 5)
		pg := ins[1].bp.Fix(ctx, rid.Page)
		row, _ := pg.Get(rid.Slot)
		if storage.RowVersion(row) != 1 {
			t.Errorf("remote row version = %d, want 1", storage.RowVersion(row))
		}
		ins[1].bp.Unfix(ctx, pg, false)
	})
	k.RunFor(1 * sim.Millisecond)
}

func TestInsertGrowsTable(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	ins := testDeployment(k, 1, 240, true)
	before := ins[0].TableDef(1).NumRows
	src := newFixedSource(Request{Ops: []Op{{Table: 1, Key: 0, Kind: OpInsert}}})
	ins[0].StartWorkersOnly(src)
	k.RunFor(1 * sim.Millisecond)
	st := ins[0].Stats
	if st.Committed == 0 {
		t.Fatal("no inserts committed")
	}
	after := ins[0].TableDef(1).NumRows
	if after < before+int64(st.Committed) {
		t.Errorf("NumRows grew %d for %d commits", after-before, st.Committed)
	}
}

func TestConflictingUpdatesSerializeViaWaitDie(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	ins := testDeployment(k, 1, 240, true)
	// All workers update the same row: wait-die aborts must occur and every
	// committed txn must bump the version exactly once.
	src := newFixedSource(Request{Ops: []Op{{Table: 1, Key: 42, Kind: OpUpdate}}})
	ins[0].StartWorkersOnly(src)
	k.RunFor(3 * sim.Millisecond)
	if ins[0].Stats.Committed == 0 {
		t.Fatal("no commits under contention")
	}
	if ins[0].Stats.Aborted == 0 {
		t.Error("no wait-die aborts with 24 workers on one row")
	}
	// Strict 2PL serializes the bumps: at any instant the version equals
	// committed updates plus in-flight bumps (at most one per worker).
	k.Spawn("verify", func(p *sim.Proc) {
		ctx := exec.New(p, ins[0].Cores[0], ins[0].model, nil)
		tst := ins[0].tables[1]
		rid, _ := tst.idx.Search(ctx, 42)
		pg := ins[0].bp.Fix(ctx, rid.Page)
		row, _ := pg.Get(rid.Slot)
		// Snapshot version and commit count at the same virtual instant.
		version := storage.RowVersion(row)
		committed := ins[0].Stats.Committed
		ins[0].bp.Unfix(ctx, pg, false)
		workers := uint64(len(ins[0].Cores))
		if version < committed || version > committed+workers {
			t.Errorf("row version %d inconsistent with %d commits (+%d in flight)", version, committed, workers)
		}
	})
	k.RunFor(100 * sim.Microsecond)
}

// soloInstance builds one instance of 2400 rows on the first `workers` cores
// of the quad-socket machine, with tweak applied to the default options.
func soloInstance(k *sim.Kernel, workers int, tweak func(*Options)) *Instance {
	topo := topology.QuadSocket()
	opts := DefaultOptions(TableSpec{ID: 1, Name: "rows", RowBytes: 250, LocalRows: 2400})
	tweak(&opts)
	in := NewInstance(k, topo, mem.NewModel(topo), ipc.NewNetwork[Msg](k, topo, ipc.UnixSocket),
		0, topology.IslandPartition(topo, 1)[0][:workers], rangePart{instances: 1, rows: 2400}, nil, opts)
	in.Connect([]*Instance{in})
	return in
}

// TestSumRowVersionsIsReadOnly: on a dirtied table that is partly resident,
// partly evicted to retained images and partly never touched, the snapshot
// sum moves no storage counter and fetches no page, and equals what the
// fetch-everything implementation it replaced computes.
func TestSumRowVersionsIsReadOnly(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	in := soloInstance(k, 2, func(o *Options) {
		o.BufferPoolPages = 16 // of 78: most dirtied pages get evicted
	})
	var reqs []Request
	for key := int64(0); key < 1800; key += 37 { // leaves the table's tail untouched
		reqs = append(reqs, Request{Ops: []Op{{Table: 1, Key: key, Kind: OpUpdate}, {Table: 1, Key: key + 1, Kind: OpRead}}})
	}
	in.StartWorkersOnly(newFixedSource(reqs...))
	k.RunFor(3 * sim.Millisecond)

	type counters struct {
		synthesized, restored, hits, misses, evictions, writeBacks uint64
		images, resident                                           int
	}
	snap := func() counters {
		return counters{in.store.Synthesized, in.store.Restored, in.bp.Hits, in.bp.Misses,
			in.bp.Evictions, in.bp.DirtyWriteBacks, in.store.ImageCount(), in.bp.Resident()}
	}
	before := snap()
	if before.images == 0 || before.resident != 16 || in.Stats.RowsCommitted == 0 {
		t.Fatalf("setup: %d images, %d resident, %d rows committed; want evicted dirty pages and a full pool",
			before.images, before.resident, in.Stats.RowsCommitted)
	}
	got := in.SumRowVersions()
	if after := snap(); after != before {
		t.Errorf("SumRowVersions moved storage state:\n before %+v\n after  %+v", before, after)
	}

	// The old implementation: fetch every non-resident page and read every row.
	var want uint64
	def := in.TableDef(1)
	for no := int64(0); no < def.NumPages(); no++ {
		id := storage.PageID{Table: 1, No: no}
		pg := in.bp.Peek(id)
		if pg == nil {
			pg = in.store.Fetch(id)
		}
		for s := 0; s < pg.NumSlots(); s++ {
			if row, ok := pg.Get(uint16(s)); ok {
				want += storage.RowVersion(row)
			}
		}
	}
	if got != want || got < in.Stats.RowsCommitted {
		t.Errorf("SumRowVersions = %d, fetch-everything sum = %d, rows committed = %d", got, want, in.Stats.RowsCommitted)
	}
}

// TestRestoreKeepsCrashedStoreOutOfThePool: threads of the dead epoch may
// still hold pages of the crashed store, so Restore must leave its chunks to
// the garbage collector; only Close releases, and only the live store.
func TestRestoreKeepsCrashedStoreOutOfThePool(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	in := soloInstance(k, 1, func(o *Options) { o.Wal.Retain = true })
	in.EnableFaultMode()
	in.StartWorkersOnly(newFixedSource(Request{Ops: []Op{{Table: 1, Key: 5, Kind: OpUpdate}}}))
	k.RunFor(sim.Millisecond)

	crashed := in.store
	held := crashed.Fetch(storage.PageID{Table: 1, No: 3}) // a page a dead-epoch thread still holds
	in.Crash()
	in.Restore()
	in.Reopen()
	if in.store == crashed {
		t.Fatal("Restore kept the crashed store")
	}
	if row, ok := held.Get(0); !ok || storage.RowKey(row) != 3*in.TableDef(1).RowsPerPage() {
		t.Error("page of the crashed store became unreadable after Restore")
	}
	if len(crashed.SortedTables()) != 1 {
		t.Error("Restore released the crashed store")
	}
	in.Close()
	in.Close()
	if in.store != nil || in.bp != nil {
		t.Error("Close kept the storage references")
	}
	defer func() {
		if recover() == nil {
			t.Error("SumRowVersions after Close did not panic")
		}
	}()
	in.SumRowVersions()
}

// TestRestoreRebuildsIndexAndRedoesInserts: Restore bulk-loads the index
// anew (every leaf dense, resolved by Table.Locate) and redo then re-inserts
// into it — replaced RIDs for updated rows, appended keys for inserted ones.
// Afterwards the index is sound, finds every loaded row where Locate puts
// it, and finds every committed insert at a slot holding that key.
func TestRestoreRebuildsIndexAndRedoesInserts(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	in := soloInstance(k, 2, func(o *Options) { o.Wal.Retain = true })
	in.EnableFaultMode()
	in.StartWorkersOnly(newFixedSource(
		Request{Ops: []Op{{Table: 1, Kind: OpInsert}, {Table: 1, Key: 77, Kind: OpUpdate}}},
		Request{Ops: []Op{{Table: 1, Key: 2399, Kind: OpUpdate}, {Table: 1, Kind: OpInsert}}},
	))
	k.RunFor(2 * sim.Millisecond)
	if in.Stats.Committed == 0 {
		t.Fatal("nothing committed before the crash")
	}
	in.Crash()
	in.Restore()
	in.Reopen()

	ts := in.tables[1]
	if msg := ts.idx.CheckInvariants(); msg != "" {
		t.Fatalf("index after restore: %s", msg)
	}
	const loaded = 2400
	if ts.def.NumRows <= loaded || ts.idx.Size() <= loaded {
		t.Fatalf("redo re-inserted nothing: %d rows, %d index entries", ts.def.NumRows, ts.idx.Size())
	}
	for key := int64(0); key < loaded; key++ {
		if rid, ok := ts.idx.Search(nil, key); !ok || rid != ts.def.Locate(key) {
			t.Fatalf("loaded key %d resolves to %v,%v after restore", key, rid, ok)
		}
	}
	found := 0
	for key := int64(loaded); key < ts.def.NumRows; key++ {
		rid, ok := ts.idx.Search(nil, key)
		if !ok {
			continue // claimed by a transaction that did not commit
		}
		found++
		row, ok := in.store.Fetch(rid.Page).Get(rid.Slot)
		if !ok || storage.RowKey(row) != key {
			t.Errorf("inserted key %d: index points at %v, which does not hold it", key, rid)
		}
	}
	if found != ts.idx.Size()-loaded {
		t.Errorf("index holds %d entries past the loaded range, %d found by key", ts.idx.Size()-loaded, found)
	}
}
