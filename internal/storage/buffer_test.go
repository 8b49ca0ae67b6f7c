package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// withCtx runs fn inside a simulated thread with a fresh exec context.
func withCtx(t testing.TB, fn func(ctx *exec.Ctx)) {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	k.Spawn("test", func(p *sim.Proc) {
		ctx := exec.New(p, 0, model, nil)
		ctx.BD = &exec.Breakdown{}
		fn(ctx)
	})
	k.Run()
}

func newFixture(capacity int) (*PageStore, *BufferPool, *Table) {
	store := NewPageStore()
	tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 10000}
	store.AddTable(tab)
	bp := NewBufferPool(store, MMapDisk(), capacity)
	return store, bp, tab
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		_, bp, tab := newFixture(8)
		id := PageID{Table: tab.ID, No: 3}
		p1 := bp.Fix(ctx, id)
		bp.Unfix(ctx, p1, false)
		p2 := bp.Fix(ctx, id)
		bp.Unfix(ctx, p2, false)
		if p1 != p2 {
			t.Error("second fix returned different page object")
		}
		if bp.Hits != 1 || bp.Misses != 1 {
			t.Errorf("hits=%d misses=%d, want 1 and 1", bp.Hits, bp.Misses)
		}
	})
}

func TestBufferPoolEvictionWritesBackDirty(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		store, bp, tab := newFixture(4)
		// Dirty page 0.
		p := bp.Fix(ctx, PageID{Table: tab.ID, No: 0})
		row, _ := p.Get(0)
		BumpRowVersion(row)
		bp.Unfix(ctx, p, true)
		// Stream enough pages through to force page 0 out.
		for no := int64(1); no <= 8; no++ {
			q := bp.Fix(ctx, PageID{Table: tab.ID, No: no})
			bp.Unfix(ctx, q, false)
		}
		if bp.Evictions == 0 {
			t.Fatal("no evictions at capacity 4")
		}
		if bp.DirtyWriteBacks == 0 || store.ImageCount() == 0 {
			t.Fatal("dirty page evicted without write-back")
		}
		// Re-fix page 0: the update must have survived.
		p = bp.Fix(ctx, PageID{Table: tab.ID, No: 0})
		row, _ = p.Get(0)
		if RowVersion(row) != 1 {
			t.Errorf("row version = %d after eviction round-trip, want 1", RowVersion(row))
		}
		bp.Unfix(ctx, p, false)
	})
}

func TestBufferPoolRespectsPins(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		_, bp, tab := newFixture(2)
		a := bp.Fix(ctx, PageID{Table: tab.ID, No: 0})
		b := bp.Fix(ctx, PageID{Table: tab.ID, No: 1})
		_ = b
		// Third fix must evict page 1 only if unpinned; both pinned -> panic.
		defer func() {
			if recover() == nil {
				t.Error("expected thrash panic with all pages pinned")
			}
			// Unwind cleanly for kernel close.
			_ = a
		}()
		bp.Fix(ctx, PageID{Table: tab.ID, No: 2})
	})
}

func TestBufferPoolUnfixUnknownPanics(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		_, bp, tab := newFixture(2)
		p := bp.Fix(ctx, PageID{Table: tab.ID, No: 0})
		bp.Unfix(ctx, p, false)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on double unfix")
			}
		}()
		bp.Unfix(ctx, p, false)
	})
}

func TestBufferPoolMissChargesIO(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		_, bp, tab := newFixture(4)
		p := bp.Fix(ctx, PageID{Table: tab.ID, No: 0})
		bp.Unfix(ctx, p, false)
		if ctx.BD[exec.BIO] == 0 {
			t.Error("miss did not bill BIO")
		}
		before := ctx.BD[exec.BIO]
		p = bp.Fix(ctx, PageID{Table: tab.ID, No: 0})
		bp.Unfix(ctx, p, false)
		if ctx.BD[exec.BIO] != before {
			t.Error("hit billed BIO")
		}
	})
}

func TestBufferPoolFlushAll(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		store, bp, tab := newFixture(8)
		for no := int64(0); no < 3; no++ {
			p := bp.Fix(ctx, PageID{Table: tab.ID, No: no})
			row, _ := p.Get(0)
			BumpRowVersion(row)
			bp.Unfix(ctx, p, true)
		}
		bp.FlushAll(ctx)
		if store.ImageCount() != 3 {
			t.Errorf("ImageCount = %d after FlushAll, want 3", store.ImageCount())
		}
		if hr := bp.HitRate(); hr < 0 || hr > 1 {
			t.Errorf("hit rate %v out of range", hr)
		}
	})
}

func TestPageStoreSynthesizeVsRestore(t *testing.T) {
	store, _, tab := newFixture(2)
	p := store.Fetch(PageID{Table: tab.ID, No: 5})
	if store.Synthesized != 1 {
		t.Error("expected synthesis on first fetch")
	}
	row, _ := p.Get(0)
	BumpRowVersion(row)
	store.WriteBack(p)
	q := store.Fetch(PageID{Table: tab.ID, No: 5})
	if store.Restored != 1 {
		t.Error("expected restore after write-back")
	}
	row2, _ := q.Get(0)
	if RowVersion(row2) != 1 {
		t.Error("restored page lost update")
	}
}

func TestPageStoreUnknownTablePanics(t *testing.T) {
	store := NewPageStore()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	store.Fetch(PageID{Table: 99, No: 0})
}

func TestDiskStats(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		d := HDDArray()
		t0 := ctx.P.Now()
		d.Read(ctx)
		if got := ctx.P.Now() - t0; got != 5500*sim.Microsecond {
			t.Errorf("HDD read took %v, want 5.5ms", got)
		}
		d.Write(ctx)
		if d.Reads != 1 || d.Writes != 1 {
			t.Error("disk op counters wrong")
		}
	})
}

// benchHits drives b.N buffer-pool hits through a fully prewarmed pool —
// over enough pages, in random order, that the host's cache holds neither
// the frames nor the rows. prepare sees the pool and the RIDs before the
// clock starts, read is the timed access between Fix and Unfix, and verify
// inspects the pool afterwards.
func benchHits(b *testing.B, prepare func(bp *BufferPool, rids []RID), read func(p *Page, slot uint16) int, verify func(bp *BufferPool)) {
	withCtx(b, func(ctx *exec.Ctx) {
		tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 31 * 4096}
		store := NewPageStore()
		defer store.Release()
		store.AddTable(tab)
		bp := NewBufferPool(store, MMapDisk(), int(tab.NumPages()))
		bp.Prewarm(0)
		rng := rand.New(rand.NewSource(1))
		rids := make([]RID, 1<<16)
		for i := range rids {
			rids[i] = tab.Locate(rng.Int63n(tab.NumRows))
		}
		prepare(bp, rids)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rid := rids[i&(len(rids)-1)]
			p := bp.Fix(ctx, rid.Page)
			benchSink += read(p, rid.Slot)
			bp.Unfix(ctx, p, false)
		}
		b.StopTimer()
		if bp.Misses != 0 {
			b.Fatalf("%d misses in a prewarmed pool", bp.Misses)
		}
		verify(bp)
	})
}

// BenchmarkFixHit is the resident-page path of every row access: probe the
// frame directory, pin, read one (already synthesized) row, unpin. It must
// not allocate (CI gates on it).
func BenchmarkFixHit(b *testing.B) {
	benchHits(b,
		func(bp *BufferPool, rids []RID) {
			for _, rid := range rids {
				bp.Peek(rid.Page).Get(rid.Slot) // first touch synthesizes; not this benchmark's subject
			}
		},
		func(p *Page, slot uint16) int {
			row, _ := p.Get(slot)
			return len(row)
		},
		func(*BufferPool) {})
}

// BenchmarkReadUnwrittenRowKey is BenchmarkFixHit for a row nobody wrote,
// read the way the engine reads it: KeyAt answers from the Page struct, so
// the access allocates nothing (CI gates on it) and, checked here over
// poisoned buffers, neither reads nor writes a byte of any page.
func BenchmarkReadUnwrittenRowKey(b *testing.B) {
	untouched := bytes.Repeat([]byte{poison}, PageSize)
	benchHits(b,
		func(bp *BufferPool, _ []RID) {
			for _, p := range bp.ring {
				copy(p.data, untouched) // a lazy page's buffer is arbitrary: make it recognizable
			}
		},
		func(p *Page, slot uint16) int {
			key, n, _ := p.KeyAt(slot)
			return int(key) + n
		},
		func(bp *BufferPool) {
			for _, p := range bp.ring {
				if !bytes.Equal(p.data, untouched) || p.filled != [filledWords]uint64{} {
					b.Fatalf("page %v: key reads touched the page", p.ID)
				}
			}
		})
}
