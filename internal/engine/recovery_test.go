package engine

import (
	"testing"

	"islands/internal/ipc"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/topology"
	"islands/internal/wal"
)

// buildRetained constructs a single instance with log retention.
func buildRetained(k *sim.Kernel, rows int64) *Instance {
	topo := topology.QuadSocket()
	model := mem.NewModel(topo)
	net := ipc.NewNetwork[Msg](k, topo, ipc.UnixSocket)
	opts := DefaultOptions(TableSpec{ID: 1, Name: "rows", RowBytes: 250, LocalRows: rows})
	opts.Wal.Retain = true
	in := NewInstance(k, topo, model, net, 0, topology.IslandPartition(topo, 1)[0],
		rangePart{instances: 1, rows: rows}, nil, opts)
	in.Connect([]*Instance{in})
	return in
}

// updated is the log record of txn's first update of loaded row key: the
// row, in its slot, at version 1.
func updated(def *storage.Table, txn uint64, key int64) wal.Record {
	return wal.Record{Type: wal.RecUpdate, Txn: txn, Table: def.ID, Key: key, Slot: def.Locate(key).Slot,
		Version: 1, ImageBytes: def.RowBytes}
}

func TestRecoverReappliesCommittedUpdates(t *testing.T) {
	// Crash-and-recover: run updates, "lose" all volatile state by
	// building a fresh instance, replay the log, compare row versions.
	k := sim.NewKernel()
	victim := buildRetained(k, 240)
	src := newFixedSource(Request{Ops: []Op{
		{Table: 1, Key: 7, Kind: OpUpdate},
		{Table: 1, Key: 100, Kind: OpUpdate},
	}})
	victim.Start(src)
	k.RunFor(2 * sim.Millisecond)
	committed := victim.Stats.RowsCommitted
	if committed == 0 {
		t.Fatal("no updates committed before the crash")
	}
	log := victim.Wal().Records()
	k.Close() // the crash: all volatile state of the victim is gone

	// Fresh instance, same schema, empty caches.
	k2 := sim.NewKernel()
	defer k2.Close()
	fresh := buildRetained(k2, 240)
	rep, err := fresh.Recover(log)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Redone == 0 || rep.Committed == 0 {
		t.Fatalf("recovery did nothing: %+v", rep)
	}
	// All committed version bumps must be visible; uncommitted ones (cut
	// off mid-flight by the crash) must not.
	sum := fresh.SumRowVersions()
	if sum != uint64(rep.Redone) {
		t.Errorf("recovered version sum %d != redone updates %d", sum, rep.Redone)
	}
	if sum < committed {
		t.Errorf("recovered versions %d lost committed updates (%d)", sum, committed)
	}
}

func TestRecoverSkipsLosers(t *testing.T) {
	// Hand-craft a log: txn 1 commits, txn 2 never does, txn 3 aborts.
	k := sim.NewKernel()
	defer k.Close()
	in := buildRetained(k, 240)
	def := in.TableDef(1)
	log := []wal.Record{
		updated(def, 1, 5),
		{Type: wal.RecCommit, Txn: 1},
		updated(def, 2, 6),
		updated(def, 3, 7),
		{Type: wal.RecAbort, Txn: 3},
	}
	rep, err := in.Recover(log)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Redone != 1 || rep.Skipped != 2 {
		t.Errorf("report %+v, want 1 redone / 2 skipped", rep)
	}
	if rep.Losers != 1 {
		t.Errorf("losers = %d, want 1 (txn 2)", rep.Losers)
	}
	if sum := in.SumRowVersions(); sum != 1 {
		t.Errorf("version sum = %d, want 1 (only txn 1's update)", sum)
	}
}

func TestRecoverDistributedOutcomes(t *testing.T) {
	// Prepared-but-undecided participant work must not be redone; a
	// dist-commit makes it a winner.
	k := sim.NewKernel()
	defer k.Close()
	in := buildRetained(k, 240)
	def := in.TableDef(1)
	log := []wal.Record{
		updated(def, 10, 1),
		{Type: wal.RecPrepare, Txn: 10}, // undecided: loser
		updated(def, 11, 2),
		{Type: wal.RecPrepare, Txn: 11},
		{Type: wal.RecDistCommit, Txn: 11},
	}
	rep, err := in.Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Redone != 1 {
		t.Errorf("redone = %d, want only the dist-committed txn", rep.Redone)
	}
	if sum := in.SumRowVersions(); sum != 1 {
		t.Errorf("version sum = %d, want 1", sum)
	}
}

func TestRecoverRejectsImagelessLog(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	in := buildRetained(k, 240)
	log := []wal.Record{
		{Type: wal.RecUpdate, Txn: 1, Table: 1, Key: 5, Version: 1}, // no row image
		{Type: wal.RecCommit, Txn: 1},
	}
	if _, err := in.Recover(log); err == nil {
		t.Error("expected error for log without after-images")
	}
}

// TestRecoverErrorPaths drives Recover through every redo failure — torn
// and truncated records, unknown tables, a slot no page can have — plus the
// benign torn-tail case, asserting the partial RecoveryReport counts.
func TestRecoverErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		log     func(def *storage.Table) []wal.Record
		wantErr bool
		want    RecoveryReport // compared when set (zero Analyzed = skip)
	}{
		{
			// A committed update that carries no row image (torn record
			// body): redo cannot proceed.
			name: "empty after-image",
			log: func(def *storage.Table) []wal.Record {
				return []wal.Record{
					{Type: wal.RecUpdate, Txn: 1, Table: 1, Key: 5},
					{Type: wal.RecCommit, Txn: 1},
				}
			},
			wantErr: true,
		},
		{
			// A truncated (partial) after-image for an existing row: the
			// fixed-width update must reject the size mismatch.
			name: "truncated after-image",
			log: func(def *storage.Table) []wal.Record {
				r := updated(def, 1, 5)
				r.ImageBytes = 10
				return []wal.Record{
					r,
					{Type: wal.RecCommit, Txn: 1},
				}
			},
			wantErr: true,
		},
		{
			// A record for a table this instance does not own.
			name: "unknown table",
			log: func(def *storage.Table) []wal.Record {
				r := updated(def, 1, 5)
				r.Table = 9
				return []wal.Record{
					r,
					{Type: wal.RecCommit, Txn: 1},
				}
			},
			wantErr: true,
		},
		{
			// An insert-like redo (key beyond the loaded rows) into a slot
			// no page of the table can have: the redo insert fails.
			name: "unappliable insert image",
			log: func(def *storage.Table) []wal.Record {
				r := updated(def, 1, 100000)
				r.Slot = uint16(def.RowsPerPage())
				return []wal.Record{
					r,
					{Type: wal.RecCommit, Txn: 1},
				}
			},
			wantErr: true,
		},
		{
			// A good record before the bad one: the partial report shows the
			// progress made before the failure.
			name: "fails after partial redo",
			log: func(def *storage.Table) []wal.Record {
				return []wal.Record{
					updated(def, 1, 5),
					{Type: wal.RecCommit, Txn: 1},
					{Type: wal.RecUpdate, Txn: 2, Table: 1, Key: 6, Version: 1},
					{Type: wal.RecCommit, Txn: 2},
				}
			},
			wantErr: true,
			want:    RecoveryReport{Analyzed: 4, Redone: 1},
		},
		{
			// Torn tail: the log ends mid-transaction (update without any
			// outcome record). Not an error — the tail is a loser.
			name: "torn tail is a loser",
			log: func(def *storage.Table) []wal.Record {
				return []wal.Record{
					updated(def, 1, 5),
					{Type: wal.RecCommit, Txn: 1},
					updated(def, 2, 6),
				}
			},
			want: RecoveryReport{Analyzed: 3, Redone: 1, Skipped: 1, Committed: 1, Losers: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			in := buildRetained(k, 240)
			rep, err := in.Recover(tc.log(in.TableDef(1)))
			if tc.wantErr && err == nil {
				t.Fatalf("expected an error, got report %+v", rep)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("recover: %v", err)
			}
			if tc.want.Analyzed != 0 && rep != tc.want {
				t.Errorf("report %+v, want %+v", rep, tc.want)
			}
		})
	}
}

// retainedDeployment is testDeployment with every instance's log retained.
func retainedDeployment(k *sim.Kernel, n int, rows int64) []*Instance {
	topo := topology.QuadSocket()
	model := mem.NewModel(topo)
	net := ipc.NewNetwork[Msg](k, topo, ipc.UnixSocket)
	parts := topology.IslandPartition(topo, n)
	ins := make([]*Instance, n)
	for i := range ins {
		opts := DefaultOptions(TableSpec{ID: 1, Name: "rows", RowBytes: 250, LocalRows: rows / int64(n)})
		opts.Wal.Retain = true
		ins[i] = NewInstance(k, topo, model, net, InstanceID(i), parts[i], rangePart{instances: n, rows: rows}, nil, opts)
	}
	for _, in := range ins {
		in.Connect(ins)
	}
	return ins
}

// TestRecordSizeUnchanged pins the log size of every record the engine
// writes, which logging and forcing charge by: an update is 88 bytes (a
// 48-byte physiological diff), an insert 40 plus the row, and every
// outcome record 40 — commit, abort, prepare, end, dist-commit and
// dist-abort. Two instances run contended local and distributed updates
// and inserts, so each kind is written.
func TestRecordSizeUnchanged(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	const rows = 2400
	ins := retainedDeployment(k, 2, rows)
	src := &cycleSource{}
	for i := int64(0); i < 32; i++ {
		src.reqs = append(src.reqs,
			Request{Ops: []Op{{Table: 1, Key: i * 37 % 1200, Kind: OpUpdate}, {Table: 1, Key: 1200 + i*53%1200, Kind: OpUpdate}}},
			Request{Ops: []Op{{Table: 1, Key: 0, Kind: OpInsert}, {Table: 1, Key: 10, Kind: OpUpdate}}},
			Request{Ops: []Op{{Table: 1, Key: 1210, Kind: OpUpdate}, {Table: 1, Key: 10, Kind: OpUpdate}}})
	}
	for _, in := range ins {
		in.Start(src)
	}
	k.RunFor(3 * sim.Millisecond)

	rowBytes := ins[0].TableDef(1).RowBytes
	seen := map[string]int{}
	for _, in := range ins {
		for _, r := range in.Wal().Records() {
			kind, want := r.Type.String(), 40
			if r.Type == wal.RecUpdate {
				kind, want = "update", 88
				if r.Key >= rows/2 {
					kind, want = "insert", 40+rowBytes
				}
			}
			seen[kind]++
			if got := r.Size(); got != want {
				t.Fatalf("%s record %+v: Size() = %d, want %d", kind, r, got, want)
			}
		}
	}
	for _, kind := range []string{"update", "insert", "commit", "abort", "prepare", "end", "dist-commit", "dist-abort"} {
		if seen[kind] == 0 {
			t.Errorf("no %s record written (%v)", kind, seen)
		}
	}
}

// TestRecoverReproducesCommittedVersions runs contended updates and inserts
// with a retained log — inserts claimed out of order, and inserts aborted
// by a conflict on a later update, whose holes later inserts reuse — then
// recovers the log onto a fresh instance. Every row a committed transaction
// left, loaded or inserted, must come back in the slot it held with the
// version it had, and no other key may come back; only rows that a
// transaction still in flight at the cut had written are left out.
func TestRecoverReproducesCommittedVersions(t *testing.T) {
	k := sim.NewKernel()
	const rows = 2400
	victim := retainedDeployment(k, 1, rows)[0]
	src := &cycleSource{}
	for i := int64(0); i < 32; i++ {
		src.reqs = append(src.reqs,
			Request{Ops: []Op{{Table: 1, Kind: OpInsert}, {Table: 1, Key: 7, Kind: OpUpdate}}},
			Request{Ops: []Op{{Table: 1, Key: i * 67 % rows, Kind: OpUpdate}, {Table: 1, Kind: OpInsert}}},
			Request{Ops: []Op{{Table: 1, Key: 7, Kind: OpUpdate}, {Table: 1, Key: i * 131 % rows, Kind: OpUpdate}}})
	}
	victim.Start(src)
	k.RunFor(3 * sim.Millisecond)
	log := victim.Wal().Records()

	// Rows written by attempts that no outcome record follows are the cut's
	// in-flight work: the victim shows them, recovery must not.
	ended := map[uint64]bool{}
	inFlight := map[int64]bool{}
	for i := len(log) - 1; i >= 0; i-- {
		switch r := log[i]; r.Type {
		case wal.RecUpdate:
			if !ended[r.Txn] {
				inFlight[r.Key] = true
			}
		case wal.RecCommit, wal.RecAbort, wal.RecDistCommit, wal.RecDistAbort:
			ended[r.Txn] = true
		}
	}

	type row struct {
		rid storage.RID
		v   uint64
	}
	rowsOf := func(in *Instance) map[int64]row {
		ts := in.tables[1]
		out := map[int64]row{}
		for key := int64(0); key < ts.def.NumRows; key++ {
			rid, ok := ts.idx.Search(nil, key)
			if !ok || inFlight[key] {
				continue
			}
			pg := in.bp.Peek(rid.Page)
			if pg == nil {
				pg = in.store.Fetch(rid.Page)
			}
			got, ok := pg.Key(rid.Slot)
			v, _ := pg.Version(rid.Slot)
			if !ok || got != key {
				t.Fatalf("instance %d: key %d indexed at %v, which holds %d (%v)", in.ID, key, rid, got, ok)
			}
			out[key] = row{rid, v}
		}
		return out
	}
	want := rowsOf(victim)
	moved, versions := 0, uint64(0)
	for key, r := range want {
		if key >= rows && r.rid.Slot != victim.tables[1].def.Locate(key).Slot {
			moved++ // out of claim order, or in a reused hole
		}
		versions += r.v
	}
	if victim.Stats.Aborted == 0 || moved == 0 || versions == 0 {
		t.Fatalf("setup: %d aborts, %d inserted rows off their arithmetic slot, version sum %d",
			victim.Stats.Aborted, moved, versions)
	}
	k.Close()

	k2 := sim.NewKernel()
	defer k2.Close()
	fresh := retainedDeployment(k2, 1, rows)[0]
	if _, err := fresh.Recover(log); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got := rowsOf(fresh)
	for key, w := range want {
		if g, ok := got[key]; !ok || g != w {
			t.Errorf("key %d: recovered %+v (%v), committed %+v", key, g, ok, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("key %d: recovered, but no committed transaction left it", key)
		}
	}
}
