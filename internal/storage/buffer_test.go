package storage

import (
	"math/rand"
	"reflect"
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
		p.SetVersion(0, 1)
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
		if v, _ := p.Version(0); v != 1 {
			t.Errorf("row version = %d after eviction round-trip, want 1", v)
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
			p.SetVersion(0, 1)
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
	p.SetVersion(0, 1)
	store.WriteBack(p)
	q := store.Fetch(PageID{Table: tab.ID, No: 5})
	if store.Restored != 1 {
		t.Error("expected restore after write-back")
	}
	if v, _ := q.Version(0); v != 1 {
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
// clock starts, read is the timed access from fix to unfix, and verify
// inspects the pool afterwards.
func benchHits(b *testing.B, prepare func(bp *BufferPool, rids []RID), read func(ctx *exec.Ctx, bp *BufferPool, rid RID) int, verify func(bp *BufferPool)) {
	withCtx(b, func(ctx *exec.Ctx) {
		tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 31 * 4096}
		store := NewPageStore()
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
			benchSink += read(ctx, bp, rids[i&(len(rids)-1)])
		}
		b.StopTimer()
		if bp.Misses != 0 {
			b.Fatalf("%d misses in a prewarmed pool", bp.Misses)
		}
		verify(bp)
	})
}

// BenchmarkFixHit is the resident-page path of a written row's access:
// probe the frame directory, pin, read one written row's version from the
// page's struct, unpin. It must not allocate (CI gates on it).
func BenchmarkFixHit(b *testing.B) {
	benchHits(b,
		func(bp *BufferPool, rids []RID) {
			for _, rid := range rids {
				bp.Peek(rid.Page).SetVersion(rid.Slot, 1) // the first write cuts the page's array; not this benchmark's subject
			}
		},
		func(ctx *exec.Ctx, bp *BufferPool, rid RID) int {
			p := bp.Fix(ctx, rid.Page)
			v, _ := p.Version(rid.Slot)
			bp.Unfix(ctx, p, false)
			return int(v)
		},
		func(*BufferPool) {})
}

// BenchmarkReadUnwrittenRowKey is BenchmarkFixHit for a row nobody wrote,
// read the way the engine reads it without a latch: FixFrame, the header
// line, Frame.Key, UnfixFrame. The frame answers, so the access allocates
// nothing (CI gates on it) and, checked here, makes no Page struct and cuts
// no array from the store's arena.
func BenchmarkReadUnwrittenRowKey(b *testing.B) {
	var rest int
	var tab *Table
	benchHits(b,
		func(bp *BufferPool, _ []RID) { rest, tab = len(bp.store.arena.vers), bp.store.Table(1) },
		func(ctx *exec.Ctx, bp *BufferPool, rid RID) int {
			f := bp.FixFrame(ctx, rid.Page)
			ctx.ReadLine(&f.Line)
			key, _ := f.Key(tab, rid)
			bp.UnfixFrame(ctx, f)
			return int(key)
		},
		func(bp *BufferPool) {
			if n := bp.PageStructs(); n != 0 || len(bp.store.arena.vers) != rest {
				b.Fatalf("key reads made %d page structs or cut an array", n)
			}
		})
}

// TestEvictedStructServesTheNextMissFresh: a Page struct evicted dirty,
// written, with a hole, after its latch was taken and released, serves
// a later miss — of the same page, restored from its arrays, and of a page
// synthesized anew — indistinguishable from the struct a fresh pool returns
// for that miss.
func TestEvictedStructServesTheNextMissFresh(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		store, bp, tab := newFixture(1)
		ref := NewBufferPool(store, MMapDisk(), 8)
		use := func(p *Page) {
			p.Latch.AcquireExclusive(ctx)
			p.Latch.ReleaseExclusive(ctx)
			p.Latch.AcquireShared(ctx)
			p.Latch.ReleaseShared(ctx)
			p.SetVersion(2, 1)
			p.Delete(3)
			bp.Unfix(ctx, p, true)
		}
		missInto := func(old *Page, no int64) {
			t.Helper()
			id := PageID{Table: tab.ID, No: no}
			p := bp.Fix(ctx, id)
			if p != old {
				t.Fatalf("miss on %v took a new struct, not the evicted one", id)
			}
			want := ref.Fix(ctx, id)
			if got, fresh := *p, *want; !reflect.DeepEqual(got, fresh) {
				t.Errorf("reused struct for %v differs from a fresh one:\n got %+v\nwant %+v", id, got, fresh)
			}
			ref.Unfix(ctx, want, false)
		}

		p0 := bp.Fix(ctx, PageID{Table: tab.ID, No: 0})
		use(p0)
		p1 := bp.Fix(ctx, PageID{Table: tab.ID, No: 1}) // evicts page 0, dirty
		use(p1)
		missInto(p0, 0) // restored from its arrays; evicts page 1
		if store.Restored != 2 || bp.Evictions != 2 || bp.DirtyWriteBacks != 2 {
			t.Fatalf("restored=%d evictions=%d writebacks=%d, want 2, 2, 2", store.Restored, bp.Evictions, bp.DirtyWriteBacks)
		}
		bp.Unfix(ctx, p0, false)
		missInto(p1, 5) // synthesized anew
	})
}

// TestPoolNeverHandsOutAResidentStruct drives random misses, hits and
// long-held pins through a small pool: after every Fix each resident page
// has its own struct, found under its own id, and the pool has never used
// more structs than its capacity plus the one a full pool's miss holds
// before it evicts.
func TestPoolNeverHandsOutAResidentStruct(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		const capacity = 8
		_, bp, tab := newFixture(capacity)
		rng := rand.New(rand.NewSource(5))
		used := map[*Page]bool{}
		var held []*Page
		for i := 0; i < 5000; i++ {
			p := bp.Fix(ctx, PageID{Table: tab.ID, No: rng.Int63n(40)})
			used[p] = true
			if rng.Intn(4) == 0 && len(held) < capacity/2 {
				held = append(held, p) // stays pinned across later misses
			} else {
				bp.Unfix(ctx, p, rng.Intn(2) == 0)
			}
			if len(held) > 0 && rng.Intn(3) == 0 {
				bp.Unfix(ctx, held[0], false)
				held = held[1:]
			}
			seen := map[*Page]bool{}
			for _, f := range bp.ring {
				q := f.page
				if seen[q] || q.frame != f || bp.frame(q.ID) != f {
					t.Fatalf("fix %d: struct of %v is resident twice or under another id", i, q.ID)
				}
				seen[q] = true
			}
		}
		if bp.Evictions == 0 || len(used) > capacity+1 {
			t.Errorf("%d evictions, %d structs used by a pool of %d pages", bp.Evictions, len(used), capacity)
		}
	})
}

// BenchmarkFixMiss is a full pool that evicts on every Fix: once warm, a
// miss allocates nothing — its struct is the last victim's, and a page
// nobody wrote holds no array (CI gates on it).
func BenchmarkFixMiss(b *testing.B) {
	benchMisses(b, func(*Page) {})
}

// TestClosedPoolSlabsServeTheNextPool: Close hands a pool's Page-struct
// slabs — structs of written, reshaped and latched pages among them — to the
// next pool that needs one, each struct zeroed: the next pool's miss gets a
// struct from a closed pool's slab, indistinguishable from one a pool that
// reuses nothing would return. The closed pool refuses further use, and
// closing twice hands nothing back twice.
func TestClosedPoolSlabsServeTheNextPool(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		store, bp, tab := newFixture(8)
		for no := int64(0); no < 4; no++ {
			p := bp.Fix(ctx, PageID{Table: tab.ID, No: no})
			p.Latch.AcquireExclusive(ctx)
			p.SetVersion(1, 3)
			p.Delete(2)
			p.Latch.ReleaseExclusive(ctx)
			bp.Unfix(ctx, p, true)
		}
		closed := map[*Page]bool{}
		for _, s := range bp.slabs {
			for i := range s {
				closed[&s[i]] = true
			}
		}
		bp.Close()
		bp.Close()
		frameSlabs.Lock()
		seen := map[*Page]bool{}
		for _, s := range frameSlabs.free {
			if seen[&s[0]] {
				t.Error("a slab is on the free list twice")
			}
			seen[&s[0]] = true
		}
		frameSlabs.Unlock()

		next := NewBufferPool(store, MMapDisk(), 8)
		id := PageID{Table: tab.ID, No: 1}
		p := next.Fix(ctx, id)
		defer next.Unfix(ctx, p, false)
		if !closed[p] {
			t.Fatal("the next pool's miss did not take a struct from the closed pool's slab")
		}
		fresh := &Page{ID: id, frame: p.frame}
		img, _ := store.resolve(id)
		fresh.init(store, img)
		if !reflect.DeepEqual(*p, *fresh) {
			t.Errorf("reused struct differs from a fresh one:\n got %+v\nwant %+v", *p, *fresh)
		}
		defer func() {
			if recover() == nil {
				t.Error("Fix on a closed pool did not panic")
			}
		}()
		bp.Fix(ctx, id)
	})
}
