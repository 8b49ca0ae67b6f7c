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
// fate belongs to their coordinator), then a redo pass sets the versions of
// winner updates and inserts onto freshly synthesized storage.
//
// The instance must have been created with Options.Wal.Retain; Recover is
// meant for a *fresh* replacement instance with the same table definitions
// (simulating a restart after losing all volatile state). It consumes no
// virtual time: recovery happens "offline" before the measured window.
func (in *Instance) Recover(records []wal.Record) (RecoveryReport, error) {
	var rep RecoveryReport

	// Analysis: classify transaction outcomes. A wait-die retry reuses its
	// transaction's timestamp, so an abort record ends one attempt, not the
	// transaction: the updates logged before it were rolled back whatever a
	// later attempt decides.
	outcome := make(map[uint64]wal.RecType)
	lastAbort := make(map[uint64]int)
	for i, r := range records {
		rep.Analyzed++
		switch r.Type {
		case wal.RecCommit, wal.RecDistCommit:
			outcome[r.Txn] = wal.RecCommit
		case wal.RecAbort, wal.RecDistAbort:
			lastAbort[r.Txn] = i
			// A later commit decision must not be overridden; 2PC never
			// aborts after committing, so first decision wins.
			if _, decided := outcome[r.Txn]; !decided {
				outcome[r.Txn] = wal.RecAbort
			}
		}
	}

	// Redo: reapply winner versions in log order, each into the slot the
	// record names, onto pages kept here until the pass ends. Setting a
	// version is idempotent.
	pages := make(map[storage.PageID]*storage.Page)
	var err error
	for i, r := range records {
		if r.Type != wal.RecUpdate {
			continue
		}
		if a, ok := lastAbort[r.Txn]; outcome[r.Txn] != wal.RecCommit || ok && a > i {
			rep.Skipped++
			if _, seen := outcome[r.Txn]; !seen {
				outcome[r.Txn] = wal.RecAbort // loser with no outcome record
				rep.Losers++
			}
			continue
		}
		if err = in.redoOne(r, pages); err != nil {
			break
		}
		rep.Redone++
	}
	// Persist: recovery writes go straight to the backing store so a
	// subsequent cold start sees them.
	for _, pg := range pages {
		in.store.WriteBack(pg)
	}
	if err != nil {
		return rep, err
	}
	for _, o := range outcome {
		if o == wal.RecCommit {
			rep.Committed++
		}
	}
	return rep, nil
}

// redoOne sets the version of one updated or inserted row, in the slot the
// record names on the key's page (no virtual time: offline recovery).
func (in *Instance) redoOne(r wal.Record, pages map[storage.PageID]*storage.Page) error {
	ts := in.table(r.Table)
	if ts == nil {
		return fmt.Errorf("engine: redo for unknown table %d", r.Table)
	}
	if r.ImageBytes == 0 {
		return fmt.Errorf("engine: update record for txn %d key %d has no row image (log not retained?)", r.Txn, r.Key)
	}
	if r.ImageBytes != ts.def.RowBytes {
		return fmt.Errorf("engine: redo image size mismatch for key %d", r.Key)
	}
	// Inserts beyond the loaded row count grow the table first.
	if r.Key >= ts.def.NumRows {
		ts.def.NumRows = r.Key + 1
	}
	id := ts.def.Locate(r.Key).Page
	pg := pages[id]
	if pg == nil {
		if pg = in.bp.Peek(id); pg == nil {
			pg = in.store.Fetch(id)
		}
		pages[id] = pg
	}
	if !pg.Place(r.Slot, r.Key, r.Version) {
		return fmt.Errorf("engine: redo of key %d into slot %d failed on %v", r.Key, r.Slot, id)
	}
	ts.idx.Insert(nil, r.Key, storage.RID{Page: id, Slot: r.Slot})
	return nil
}
