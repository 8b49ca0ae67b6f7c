package engine

import (
	"fmt"

	"islands/internal/storage"
	"islands/internal/wal"
)

// RecoveryReport summarizes a redo pass.
type RecoveryReport struct {
	Analyzed  int // log records scanned
	Redone    int // update records reapplied
	Skipped   int // updates of loser transactions
	Committed int // committed transactions found
	Losers    int // transactions without a commit outcome
}

// Recover rebuilds the instance's data from its log: an ARIES-style
// analysis pass determines transaction outcomes (local commits, distributed
// commits, aborts; prepared-but-undecided transactions are losers whose
// fate belongs to their coordinator), then a redo pass reapplies the
// after-images of winner updates onto freshly synthesized storage.
//
// The instance must have been created with Options.Wal.Retain; Recover is
// meant for a *fresh* replacement instance with the same table definitions
// (simulating a restart after losing all volatile state). It consumes no
// virtual time: recovery happens "offline" before the measured window.
func (in *Instance) Recover(records []wal.Record) (RecoveryReport, error) {
	var rep RecoveryReport

	// Analysis: classify transaction outcomes.
	outcome := make(map[uint64]wal.RecType)
	for _, r := range records {
		rep.Analyzed++
		switch r.Type {
		case wal.RecCommit, wal.RecDistCommit:
			outcome[r.Txn] = wal.RecCommit
		case wal.RecAbort, wal.RecDistAbort:
			// A later commit decision must not be overridden; 2PC never
			// aborts after committing, so first decision wins.
			if _, decided := outcome[r.Txn]; !decided {
				outcome[r.Txn] = wal.RecAbort
			}
		}
	}

	// Redo: reapply winner after-images in log order. Updates are
	// idempotent here because the full after-image is applied.
	for _, r := range records {
		if r.Type != wal.RecUpdate {
			continue
		}
		if outcome[r.Txn] != wal.RecCommit {
			rep.Skipped++
			if _, seen := outcome[r.Txn]; !seen {
				outcome[r.Txn] = wal.RecAbort // loser with no outcome record
				rep.Losers++
			}
			continue
		}
		if len(r.After) == 0 {
			return rep, fmt.Errorf("engine: update record for txn %d key %d has no after-image (log not retained?)", r.Txn, r.Key)
		}
		if err := in.redoOne(r); err != nil {
			return rep, err
		}
		rep.Redone++
	}
	for _, o := range outcome {
		if o == wal.RecCommit {
			rep.Committed++
		}
	}
	return rep, nil
}

// redoOne applies one update/insert after-image directly to the backing
// store (no virtual time: offline recovery).
func (in *Instance) redoOne(r wal.Record) error {
	ts := in.table(r.Table)
	if ts == nil {
		return fmt.Errorf("engine: redo for unknown table %d", r.Table)
	}
	// Inserts beyond the loaded row count grow the table first.
	for r.Key >= ts.def.NumRows {
		ts.def.NumRows++
	}
	rid, ok := ts.idx.Search(nil, r.Key)
	if !ok {
		rid = ts.def.Locate(r.Key)
	}
	pg := in.bp.Peek(rid.Page)
	if pg == nil {
		pg = in.store.Fetch(rid.Page)
	}
	row, ok := pg.Get(rid.Slot)
	if !ok {
		slot, ins := pg.Insert(r.After)
		if !ins {
			return fmt.Errorf("engine: redo insert failed on %v", rid.Page)
		}
		rid = storage.RID{Page: rid.Page, Slot: slot}
	} else {
		if len(row) != len(r.After) {
			return fmt.Errorf("engine: redo image size mismatch for key %d", r.Key)
		}
		if !pg.Update(rid.Slot, r.After) {
			return fmt.Errorf("engine: redo update failed for key %d", r.Key)
		}
	}
	ts.idx.Insert(nil, r.Key, rid)
	// Persist: recovery writes go straight to the backing store so a
	// subsequent cold start sees them.
	in.store.WriteBack(pg)
	return nil
}
