package wal

import (
	"fmt"
	"testing"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

func ctxFor(p *sim.Proc, m *mem.Model) *exec.Ctx {
	c := exec.New(p, 0, m, nil)
	c.BD = &exec.Breakdown{}
	return c
}

func TestAppendAdvancesLSN(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	m := NewManager(k.DefaultDomain(), DefaultOptions())
	k.Spawn("w", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		rec := Record{Type: RecUpdate, Txn: 1, Key: 5, Version: 1, ImageBytes: 200}
		end1 := m.Append(ctx, rec)
		end2 := m.Append(ctx, rec)
		if end1 != LSN(rec.Size()) || end2 != LSN(2*rec.Size()) {
			t.Errorf("LSNs %d,%d want %d,%d", end1, end2, rec.Size(), 2*rec.Size())
		}
		if m.Appends != 2 {
			t.Errorf("Appends = %d", m.Appends)
		}
		if ctx.BD[exec.BLog] == 0 {
			t.Error("append billed nothing to BLog")
		}
	})
	k.Run()
}

func TestFlushWaitsForDurability(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	opts := DefaultOptions()
	opts.FlushLatency = 10 * sim.Microsecond
	m := NewManager(k.DefaultDomain(), opts)
	var done sim.Time
	k.Spawn("committer", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		lsn := m.Append(ctx, Record{Type: RecCommit, Txn: 1})
		m.Flush(ctx, lsn)
		done = p.Now()
		if m.Durable() < lsn {
			t.Error("flush returned before durable")
		}
	})
	k.Run()
	if done < 10*sim.Microsecond {
		t.Errorf("commit completed at %v, before flush latency elapsed", done)
	}
}

func TestGroupCommitBatchesWaiters(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	opts := DefaultOptions()
	opts.FlushLatency = 100 * sim.Microsecond
	m := NewManager(k.DefaultDomain(), opts)
	const committers = 10
	var latest sim.Time
	for i := 0; i < committers; i++ {
		i := i
		k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			p.Advance(sim.Time(i) * sim.Microsecond) // staggered arrivals within one batch window
			ctx := ctxFor(p, model)
			lsn := m.Append(ctx, Record{Type: RecCommit, Txn: uint64(i)})
			m.Flush(ctx, lsn)
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	k.Run()
	// All 10 commits should ride at most 2 flushes (first opens a batch,
	// second covers the rest): well under 10 sequential flushes.
	if m.Flushes > 2 {
		t.Errorf("Flushes = %d, want <= 2 with group commit", m.Flushes)
	}
	if latest > 210*sim.Microsecond {
		t.Errorf("last commit at %v, too slow for group commit", latest)
	}
}

func TestNoGroupCommitFlushesSerially(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	opts := DefaultOptions()
	opts.GroupCommit = false
	opts.FlushLatency = 100 * sim.Microsecond
	m := NewManager(k.DefaultDomain(), opts)
	const committers = 5
	for i := 0; i < committers; i++ {
		i := i
		k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			ctx := ctxFor(p, model)
			lsn := m.Append(ctx, Record{Type: RecCommit, Txn: uint64(i)})
			m.Flush(ctx, lsn)
		})
	}
	k.Run()
	if m.Flushes < 2 {
		t.Errorf("Flushes = %d; disabled group commit should flush more", m.Flushes)
	}
}

func TestFlushAlreadyDurableReturnsImmediately(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	m := NewManager(k.DefaultDomain(), DefaultOptions())
	k.Spawn("c", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		lsn := m.Append(ctx, Record{Type: RecCommit, Txn: 1})
		m.Flush(ctx, lsn)
		t0 := p.Now()
		m.Flush(ctx, lsn) // second flush: already durable
		if p.Now() != t0 {
			t.Error("redundant flush consumed time")
		}
	})
	k.Run()
}

func TestRetainKeepsRecords(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	opts := DefaultOptions()
	opts.Retain = true
	m := NewManager(k.DefaultDomain(), opts)
	k.Spawn("w", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		m.Append(ctx, Record{Type: RecUpdate, Txn: 9, Table: 1, Key: 42, Slot: 10, Version: 3, ImageBytes: 250})
		m.Append(ctx, Record{Type: RecPrepare, Txn: 9})
	})
	k.Run()
	recs := m.Records()
	if len(recs) != 2 || recs[0].Key != 42 || recs[0].Slot != 10 || recs[0].Version != 3 || recs[0].Size() != 290 ||
		recs[1].Type != RecPrepare {
		t.Errorf("retained records wrong: %+v", recs)
	}
	if recs[1].LSN <= recs[0].LSN {
		t.Error("LSNs not increasing")
	}
}

func TestConsolidatedInsertSkipsMutex(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	opts := DefaultOptions()
	opts.Consolidate = true
	m := NewManager(k.DefaultDomain(), opts)
	k.Spawn("w", func(p *sim.Proc) {
		ctx := ctxFor(p, model)
		m.Append(ctx, Record{Type: RecUpdate, Txn: 1})
		if m.mu.Acquires != 0 {
			t.Error("consolidated append took the insertion mutex")
		}
	})
	k.Run()
}

func TestRecTypeStrings(t *testing.T) {
	if RecPrepare.String() != "prepare" || RecDistCommit.String() != "dist-commit" {
		t.Error("record type names wrong")
	}
}
