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

	// undoBuf is the arena behind the undo entries' before-images: one
	// growing buffer per transaction instead of one allocation per updated
	// row.
	undoBuf []byte

	next *Txn // free-list link
}

// saveBefore copies a before-image into the transaction's undo arena.
func (t *Txn) saveBefore(row []byte) []byte {
	n := len(t.undoBuf)
	t.undoBuf = append(t.undoBuf, row...)
	return t.undoBuf[n:len(t.undoBuf):len(t.undoBuf)]
}

type undoEntry struct {
	table  storage.TableID
	rid    storage.RID
	key    int64
	before []byte
	insert bool
}

// newTxn begins a transaction attempt and charges begin bookkeeping. The
// Txn comes off the instance free list when one is there (procs of one
// instance run strictly one at a time, so no locking is needed).
func (in *Instance) newTxn(ctx *exec.Ctx, ts uint64, subordinate bool) *Txn {
	prev := ctx.Bucket(exec.BXct)
	ctx.Charge(CostBegin)
	ctx.WriteLine(&in.txnLine)
	ctx.Bucket(prev)
	t := in.txnFree
	if t == nil {
		t = &Txn{in: in, undo: make([]undoEntry, 0, in.undoCap), undoBuf: make([]byte, 0, in.undoBufCap)}
	} else {
		in.txnFree = t.next
		t.next = nil
	}
	t.TS, t.subordinate = ts, subordinate
	return t
}

// putTxn recycles a finished attempt's Txn, keeping the capacity of its undo
// log and image arena for the next attempt and raising the instance's
// high-water marks that size a fresh one. Call it only once commit, abort
// or the read-only release is done with the undo log and nothing else — a
// pending registration, a handler still running — references t. The images
// it handed to wal.Append are not a reference: Append deep-copies them under
// Retain and otherwise reads only their length.
func (in *Instance) putTxn(t *Txn) {
	in.undoCap = max(in.undoCap, cap(t.undo))
	in.undoBufCap = max(in.undoBufCap, cap(t.undoBuf))
	*t = Txn{in: in, undo: t.undo[:0], undoBuf: t.undoBuf[:0], next: in.txnFree}
	in.txnFree = t
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
	pg := in.bp.Fix(ctx, rid.Page)
	if in.opts.Latching {
		pg.Latch.AcquireShared(ctx)
	}
	ctx.ReadLine(&pg.HeaderLine)
	// A read looks at the row's key and length only, and KeyAt answers both
	// without synthesizing a row nobody wrote.
	got, n, ok := pg.KeyAt(rid.Slot)
	if !ok || got != key {
		panic(fmt.Sprintf("engine: corrupt row at %v for key %d", rid, key))
	}
	ctx.ReadData(&in.ws, n)
	ctx.Charge(CostPerRowCPU)
	if in.opts.Latching {
		pg.Latch.ReleaseShared(ctx)
	}
	in.bp.Unfix(ctx, pg, false)
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
	ctx.WriteLine(&pg.HeaderLine)
	row, ok := pg.Get(rid.Slot)
	if !ok || storage.RowKey(row) != key {
		panic(fmt.Sprintf("engine: corrupt row at %v for key %d", rid, key))
	}
	// Both images live in the transaction's arena: virtual time passes
	// between here and the log append, so a shared scratch buffer could be
	// overwritten by a concurrent worker before the log retains the record.
	before := t.saveBefore(row)
	after := t.saveBefore(row)
	storage.BumpRowVersion(after)
	if !pg.Update(rid.Slot, after) {
		panic("engine: in-place update failed")
	}
	ctx.WriteData(&in.ws, len(after))
	ctx.Charge(CostPerRowCPU)
	t.lastLSN = in.wal.Append(ctx, wal.Record{
		Type: wal.RecUpdate, Txn: t.TS, Table: ts.def.ID, Key: key,
		Before: before, After: after,
		// Physiological logging: the update touches a few bytes, not the
		// full before/after images.
		WireBytes: 48,
	})
	t.undo = append(t.undo, undoEntry{table: ts.def.ID, rid: rid, key: key, before: before})
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
	ctx.WriteLine(&pg.HeaderLine)
	rid := want
	row, ok := pg.Get(want.Slot)
	if ok && storage.RowKey(row) == key {
		// The page was formatted after NumRows grew, so it already has a
		// slot for the key; Get just synthesized the row.
	} else {
		// The scratch is used strictly synchronously: Insert copies it into
		// the page before any virtual time can pass, and row then aliases
		// the page-resident (pinned, X-locked) copy.
		buf := in.rowScratch(ts.def.RowBytes)
		ts.def.SynthesizeRow(key, buf)
		slot, ok := pg.Insert(buf)
		if !ok {
			panic("engine: insert into full page")
		}
		rid = storage.RID{Page: want.Page, Slot: slot}
		row, _ = pg.Get(slot)
	}
	ctx.WriteData(&in.ws, ts.def.RowBytes)
	ctx.Charge(CostPerRowCPU)
	ts.idx.Insert(ctx, key, rid)
	// Append reads only the image length (and deep-copies under Retain), so
	// passing the transient row is safe.
	t.lastLSN = in.wal.Append(ctx, wal.Record{
		Type: wal.RecUpdate, Txn: t.TS, Table: ts.def.ID, Key: key,
		After: row,
	})
	t.undo = append(t.undo, undoEntry{table: ts.def.ID, rid: rid, key: key, insert: true})
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
		} else if !pg.Update(u.rid.Slot, u.before) {
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
