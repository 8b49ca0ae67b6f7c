package engine

import (
	"fmt"

	"islands/internal/exec"
	"islands/internal/lock"
	"islands/internal/storage"
	"islands/internal/wal"
)

// Txn is the per-attempt transaction state on one instance: either a
// coordinator's local part or a participant's subordinate part.
type Txn struct {
	TS          uint64
	in          *Instance
	subordinate bool

	updated    bool
	holdsToken bool   // subordinate holds the partition execution token
	attempt    uint32 // coordinator attempt this subordinate part belongs to
	nUpdates   int    // row version bumps (atomicity accounting)
	lastLSN    wal.LSN
	undo       []undoEntry

	next *Txn // free-list link
}

type undoEntry struct {
	table  storage.TableID
	rid    storage.RID
	key    int64
	before uint64 // the row's version before an update
	insert bool
}

// txnsPerSlab is how many Txns newTxn cuts from one allocation.
const txnsPerSlab = 16

// newTxn begins a transaction attempt and charges begin bookkeeping. The
// Txn comes off the instance free list when one is there, else from the
// instance's slab (procs of one instance run strictly one at a time, so no
// locking is needed).
func (in *Instance) newTxn(ctx *exec.Ctx, ts uint64, subordinate bool) *Txn {
	prev := ctx.Bucket(exec.BXct)
	ctx.Charge(CostBegin)
	ctx.WriteLine(&in.txnLine)
	ctx.Bucket(prev)
	t := in.txnFree
	if t == nil {
		if len(in.txnSlab) == 0 {
			in.txnSlab = make([]Txn, txnsPerSlab)
		}
		t = &in.txnSlab[0]
		in.txnSlab = in.txnSlab[1:]
		t.in = in
	} else {
		in.txnFree = t.next
		t.next = nil
	}
	t.TS, t.subordinate = ts, subordinate
	return t
}

// putTxn recycles a finished attempt's Txn, keeping the capacity of its undo
// log for the next attempt. Call it only once commit, abort or the
// read-only release is done with the undo log and nothing else — a pending
// registration, a handler still running — references t.
func (in *Instance) putTxn(t *Txn) {
	*t = Txn{in: in, undo: t.undo[:0], next: in.txnFree}
	in.txnFree = t
}

// pushUndo appends u to t's undo log. A full log moves to a new array at
// the instance's high-water mark — at once to what an attempt needed
// before, not doubling there from a small start — or, past it, at twice
// its length, which raises the mark.
func (t *Txn) pushUndo(u undoEntry) {
	if len(t.undo) == cap(t.undo) {
		in := t.in
		in.undoCap = max(in.undoCap, 2*len(t.undo), 1)
		t.undo = append(make([]undoEntry, 0, in.undoCap), t.undo...)
	}
	t.undo = append(t.undo, u)
}

// apply executes one already-localized operation.
func (t *Txn) apply(ctx *exec.Ctx, op localOp) error {
	ts := t.in.table(storage.TableID(op.Table))
	if ts == nil {
		panic(fmt.Sprintf("engine: instance %d has no table %d", t.in.ID, op.Table))
	}
	switch op.Kind {
	case OpRead:
		return t.readRow(ctx, ts, op.Key)
	case OpUpdate:
		return t.updateRow(ctx, ts, op.Key)
	case OpInsert:
		return t.insertRow(ctx, ts)
	default:
		panic("engine: unknown op kind")
	}
}

func (t *Txn) lockTable(ctx *exec.Ctx, ts *tableState, mode lock.Mode) error {
	return t.in.locks.Acquire(ctx, t.TS, lock.Key{Space: uint32(ts.def.ID), ID: lock.TableLock}, mode)
}

func (t *Txn) lockRow(ctx *exec.Ctx, ts *tableState, key int64, mode lock.Mode) error {
	return t.in.locks.Acquire(ctx, t.TS, lock.Key{Space: uint32(ts.def.ID), ID: key}, mode)
}

func (t *Txn) readRow(ctx *exec.Ctx, ts *tableState, key int64) error {
	in := t.in
	if in.opts.Locking {
		if err := t.lockTable(ctx, ts, lock.IS); err != nil {
			return err
		}
		if err := t.lockRow(ctx, ts, key, lock.S); err != nil {
			return err
		}
	}
	rid, ok := ts.idx.Search(ctx, key)
	if !ok {
		return fmt.Errorf("engine: table %s has no key %d", ts.def.Name, key)
	}
	// Only the latch needs the page's struct: an unlatched read of a page
	// nobody wrote answers from its frame.
	var pg *storage.Page
	var f *storage.Frame
	if in.opts.Latching {
		pg = in.bp.Fix(ctx, rid.Page)
		pg.Latch.AcquireShared(ctx)
		f = pg.Frame()
	} else {
		f = in.bp.FixFrame(ctx, rid.Page)
	}
	ctx.ReadLine(&f.Line)
	// A read looks at the row's key only: the check that pins index -> RID.
	if got, ok := f.Key(ts.def, rid); !ok || got != key {
		panic(fmt.Sprintf("engine: corrupt row at %v for key %d", rid, key))
	}
	ctx.ReadData(&in.ws, ts.def.RowBytes)
	ctx.Charge(CostPerRowCPU)
	if pg != nil {
		pg.Latch.ReleaseShared(ctx)
	}
	in.bp.UnfixFrame(ctx, f)
	return nil
}

func (t *Txn) updateRow(ctx *exec.Ctx, ts *tableState, key int64) error {
	in := t.in
	if in.opts.Locking {
		if err := t.lockTable(ctx, ts, lock.IX); err != nil {
			return err
		}
		if err := t.lockRow(ctx, ts, key, lock.X); err != nil {
			return err
		}
	}
	rid, ok := ts.idx.Search(ctx, key)
	if !ok {
		return fmt.Errorf("engine: table %s has no key %d", ts.def.Name, key)
	}
	pg := in.bp.Fix(ctx, rid.Page)
	if in.opts.Latching {
		pg.Latch.AcquireExclusive(ctx)
	}
	ctx.WriteLine(pg.HeaderLine())
	if got, ok := pg.Key(rid.Slot); !ok || got != key {
		panic(fmt.Sprintf("engine: corrupt row at %v for key %d", rid, key))
	}
	// The update is the version bump; undo keeps the old version.
	before, _ := pg.Version(rid.Slot)
	pg.SetVersion(rid.Slot, before+1)
	ctx.WriteData(&in.ws, ts.def.RowBytes)
	ctx.Charge(CostPerRowCPU)
	t.lastLSN = in.wal.Append(ctx, wal.Record{
		Type: wal.RecUpdate, Txn: t.TS, Table: ts.def.ID, Key: key, Slot: rid.Slot,
		Version: before + 1, ImageBytes: ts.def.RowBytes,
		// Physiological logging: the update touches a few bytes, not the
		// full before/after images.
		WireBytes: 48,
	})
	t.pushUndo(undoEntry{table: ts.def.ID, rid: rid, key: key, before: before})
	t.updated = true
	t.nUpdates++
	if in.opts.Latching {
		pg.Latch.ReleaseExclusive(ctx)
	}
	in.bp.Unfix(ctx, pg, true)
	return nil
}

func (t *Txn) insertRow(ctx *exec.Ctx, ts *tableState) error {
	in := t.in
	// Claim the key atomically in virtual time, before any operation that
	// can block; the key is consumed even if this attempt aborts.
	key := ts.def.NumRows
	ts.def.NumRows++
	if in.opts.Locking {
		if err := t.lockTable(ctx, ts, lock.IX); err != nil {
			return err
		}
		if err := t.lockRow(ctx, ts, key, lock.X); err != nil {
			return err
		}
	}
	want := ts.def.Locate(key)
	pg := in.bp.Fix(ctx, want.Page)
	if in.opts.Latching {
		pg.Latch.AcquireExclusive(ctx)
	}
	ctx.WriteLine(pg.HeaderLine())
	rid := want
	// A page formatted after NumRows grew already has a slot for the key.
	if got, ok := pg.Key(want.Slot); !ok || got != key {
		slot, ok := pg.Insert(key)
		if !ok {
			panic("engine: insert into full page")
		}
		rid.Slot = slot
	}
	version, _ := pg.Version(rid.Slot)
	ctx.WriteData(&in.ws, ts.def.RowBytes)
	ctx.Charge(CostPerRowCPU)
	ts.idx.Insert(ctx, key, rid)
	t.lastLSN = in.wal.Append(ctx, wal.Record{
		Type: wal.RecUpdate, Txn: t.TS, Table: ts.def.ID, Key: key, Slot: rid.Slot,
		Version: version, ImageBytes: ts.def.RowBytes,
	})
	t.pushUndo(undoEntry{table: ts.def.ID, rid: rid, key: key, insert: true})
	t.updated = true
	if in.opts.Latching {
		pg.Latch.ReleaseExclusive(ctx)
	}
	in.bp.Unfix(ctx, pg, true)
	return nil
}

// commitLocal finishes a purely local transaction: force the commit record
// (group-committed) if anything was updated, then release locks.
func (t *Txn) commitLocal(ctx *exec.Ctx) {
	in := t.in
	prev := ctx.Bucket(exec.BXct)
	ctx.Charge(CostCommitCPU)
	ctx.WriteLine(&in.txnLine)
	ctx.Bucket(prev)
	if t.updated {
		lsn := in.wal.Append(ctx, wal.Record{Type: wal.RecCommit, Txn: t.TS})
		in.wal.Flush(ctx, lsn)
	}
	in.Stats.RowsCommitted += uint64(t.nUpdates)
	in.locks.ReleaseAll(ctx, t.TS)
}

// releaseReadOnly ends a read-only subordinate immediately (the 2PC
// read-only optimization: vote read-only at work-reply time, skip phase 2).
func (t *Txn) releaseReadOnly(ctx *exec.Ctx) {
	in := t.in
	prev := ctx.Bucket(exec.BXct)
	ctx.Charge(CostCommitCPU / 2)
	ctx.Bucket(prev)
	in.locks.ReleaseAll(ctx, t.TS)
}

// abortLocal rolls back this instance's effects: undo in LIFO order, log an
// abort record, release locks.
func (t *Txn) abortLocal(ctx *exec.Ctx) {
	in := t.in
	prev := ctx.Bucket(exec.BXct)
	ctx.Charge(CostAbortCPU)
	ctx.Bucket(prev)
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		ts := in.tables[u.table]
		pg := in.bp.Fix(ctx, u.rid.Page)
		if in.opts.Latching {
			pg.Latch.AcquireExclusive(ctx)
		}
		if u.insert {
			ts.idx.Delete(ctx, u.key)
			pg.Delete(u.rid.Slot)
		} else if !pg.SetVersion(u.rid.Slot, u.before) {
			panic("engine: undo failed")
		}
		ctx.Charge(CostUndoPerRow)
		if in.opts.Latching {
			pg.Latch.ReleaseExclusive(ctx)
		}
		in.bp.Unfix(ctx, pg, true)
	}
	if t.updated {
		in.wal.Append(ctx, wal.Record{Type: wal.RecAbort, Txn: t.TS})
	}
	in.locks.ReleaseAll(ctx, t.TS)
	t.undo = t.undo[:0]
}
