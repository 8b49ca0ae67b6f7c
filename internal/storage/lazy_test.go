package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"islands/internal/exec"
)

// The tests in this file pin the invariants behind pages that hold row
// versions: a page nobody wrote holds no array, so a miss writes the Page
// struct and nothing else and a read defines nothing; a page's first write
// cuts its array from the store's arena, whose chunks come with arbitrary
// contents, and defines every element before reading one; and a byte image
// built from what a page holds is the one the byte page wrote. They make
// stale arena contents loud by poisoning the store's chunks first.

var poison uint64 = 0xA5A5A5A5A5A5A5A5

// poisonedChunk returns an arena chunk whose every word is poison.
func poisonedChunk[T uint32 | int64]() []T {
	c := make([]T, arenaBytes/int(unsafe.Sizeof(T(0))))
	for i := range c {
		c[i] = T(poison)
	}
	return c
}

// poisonedStore returns a store over tabs whose arena chunks are poison.
func poisonedStore(t testing.TB, tabs ...*Table) *PageStore {
	t.Helper()
	s := NewPageStore()
	for _, tab := range tabs {
		s.AddTable(tab)
	}
	s.arena.vers, s.arena.keys = poisonedChunk[uint32](), poisonedChunk[int64]()
	return s
}

// lazyTables are three geometries: the smallest row (408 slots), the
// benchmark's 250-byte row, and a wide row with a large free gap; each ends
// in a short last page.
func lazyTables() []*Table {
	return []*Table{
		{ID: 1, Name: "min", RowBytes: 16, NumRows: 3*408 + 5},
		{ID: 2, Name: "rows", RowBytes: 250, NumRows: 3*31 + 7},
		{ID: 3, Name: "wide", RowBytes: 655, NumRows: 3*12 + 1},
	}
}

func bumped(row []byte) []byte {
	out := append([]byte(nil), row...)
	BumpRowVersion(out)
	return out
}

// rowImage is the row at slot as the byte page held it: the table's
// synthesized row with the page's version written in; nil for a slot that
// holds no row.
func rowImage(p *Page, slot uint16) []byte {
	key, ok := p.Key(slot)
	if !ok {
		return nil
	}
	v, _ := p.Version(slot)
	row := make([]byte, p.tab.RowBytes)
	p.tab.SynthesizeRow(key, row)
	binary.LittleEndian.PutUint64(row[8:16], v)
	return row
}

// imageOf is the 8 KB image the byte page wrote for what p holds, which
// must have no hole: its rows inserted in slot order into an empty page.
func imageOf(t testing.TB, p *Page) []byte {
	t.Helper()
	r := newRefPage(p.ID)
	for s := 0; s < p.NumSlots(); s++ {
		row := rowImage(p, uint16(s))
		if row == nil {
			t.Fatalf("imageOf: slot %d is a hole", s)
		}
		r.Insert(row)
	}
	return r.Image()
}

// checkSlots demands that p and ref agree on the slot count, the free space
// and every slot, and two beyond: whether it holds a row, and the row's key
// and version.
func checkSlots(p *Page, ref *refPage) error {
	if p.NumSlots() != ref.NumSlots() || p.FreeSpace() != ref.FreeSpace() {
		return fmt.Errorf("slots/free = %d/%d want %d/%d", p.NumSlots(), p.FreeSpace(), ref.NumSlots(), ref.FreeSpace())
	}
	for s := uint16(0); int(s) < p.NumSlots()+2; s++ {
		key, kok := p.Key(s)
		v, vok := p.Version(s)
		var wkey int64
		var wv uint64
		row, ok := ref.Get(s)
		if ok {
			wkey, wv = RowKey(row), RowVersion(row)
		}
		if kok != ok || vok != ok || key != wkey || v != wv {
			return fmt.Errorf("slot %d = key %d (%v) version %d (%v), reference key %d version %d (%v)", s, key, kok, v, vok, wkey, wv, ok)
		}
	}
	return nil
}

// TestLazyPageOverPoisonedArena: whatever order a page is read, updated and
// imaged in, it holds what the eager byte synthesis with the same updates
// holds — every row, and the byte image built from them, header pad and
// free gap included — although its arena started as poison; and a miss or a
// read cuts nothing from the arena.
func TestLazyPageOverPoisonedArena(t *testing.T) {
	type op func(t *testing.T, s *PageStore, p *Page, ref *refPage)
	getSubset := func(t *testing.T, _ *PageStore, p *Page, ref *refPage) {
		for s := 0; s < p.NumSlots(); s += 3 {
			want, _ := ref.Get(uint16(s))
			if !bytes.Equal(rowImage(p, uint16(s)), want) {
				t.Fatalf("slot %d: row differs from eager row", s)
			}
		}
	}
	update := func(t *testing.T, _ *PageStore, p *Page, ref *refPage) {
		// Slots both inside and outside the Get subset, first and last.
		for _, s := range []int{0, 1, 3, p.NumSlots() - 1} {
			if s >= p.NumSlots() {
				continue
			}
			v, _ := p.Version(uint16(s))
			row, _ := ref.Get(uint16(s))
			if !p.SetVersion(uint16(s), v+1) || !ref.Update(uint16(s), bumped(row)) {
				t.Fatal("update refused")
			}
		}
	}
	// Every row is exactly the bytes the byte page's slot directory points
	// at.
	getViaDirectory := func(t *testing.T, _ *PageStore, p *Page, ref *refPage) {
		for s := 0; s < p.NumSlots(); s++ {
			off, length := ref.dirSlot(s)
			if !bytes.Equal(rowImage(p, uint16(s)), ref.data[off:off+length]) {
				t.Fatalf("slot %d: row differs from the directory's bytes", s)
			}
		}
	}
	// A read defines nothing: Key and Version answer every slot as Get on
	// the eager reference does, and neither the page nor the arena moves.
	keys := func(t *testing.T, s *PageStore, p *Page, ref *refPage) {
		before, rest := *p, len(s.arena.vers)+len(s.arena.keys)
		if err := checkSlots(p, ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*p, before) || len(s.arena.vers)+len(s.arena.keys) != rest {
			t.Fatal("reads wrote to the page or the arena")
		}
	}
	image := func(t *testing.T, _ *PageStore, p *Page, ref *refPage) {
		if !bytes.Equal(imageOf(t, p), ref.Image()) {
			t.Fatal("image differs from eager synthesis")
		}
	}
	orders := map[string][]op{
		"image":            {image},
		"keys-image":       {keys, keys, image, keys},
		"directory-image":  {getViaDirectory, image},
		"update-directory": {update, getViaDirectory, image},
		"get-image":        {getSubset, image},
		"get-keys-image":   {getSubset, keys, image},
		"update-image":     {update, image},
		"update-keys":      {keys, update, keys, image},
		"get-update-image": {getSubset, update, image},
		"update-get-image": {update, getSubset, image},
		"get-image-update": {getSubset, image, update, image},
		"update-image-get": {update, image, getSubset, image},
		"image-get-update": {image, getSubset, update, image},
		"image-update-get": {image, update, keys, getSubset, image},
	}
	for _, tab := range lazyTables() {
		for name, ops := range orders {
			t.Run(tab.Name+"/"+name, func(t *testing.T) {
				s := poisonedStore(t, tab)
				for no := int64(0); no < tab.NumPages(); no++ {
					rest := len(s.arena.vers)
					p := s.Fetch(PageID{Table: tab.ID, No: no})
					// A miss writes the Page struct and nothing else.
					if p.vers != nil || p.keys != nil || len(s.arena.vers) != rest {
						t.Fatal("a miss cut an array")
					}
					ref := refSynthesizePage(tab, no)
					for _, o := range ops {
						o(t, s, p, ref)
						if err := checkSlots(p, ref); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// TestHalfFilledDirtyPageRoundTrip evicts a dirty page of which only some
// rows were ever written, and reads all of it back from the retained arrays.
func TestHalfFilledDirtyPageRoundTrip(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 10000}
		store := poisonedStore(t, tab)
		bp := NewBufferPool(store, MMapDisk(), 4)
		id := PageID{Table: tab.ID, No: 0}
		ref := refSynthesizePage(tab, 0)
		bump := func(p *Page, s uint16) {
			v, _ := p.Version(s)
			row, _ := ref.Get(s)
			p.SetVersion(s, v+1)
			ref.Update(s, bumped(row))
		}

		p := bp.Fix(ctx, id)
		for s := 0; s < p.NumSlots()/2; s += 2 {
			bump(p, uint16(s))
		}
		bump(p, uint16(p.NumSlots()-1)) // the last row too
		bp.Unfix(ctx, p, true)

		for no := int64(1); no <= 8; no++ {
			q := bp.Fix(ctx, PageID{Table: tab.ID, No: no})
			bp.Unfix(ctx, q, false)
		}
		if bp.Peek(id) != nil || bp.DirtyWriteBacks != 1 || store.ImageCount() != 1 {
			t.Fatalf("page 0 not written back: resident=%v writebacks=%d images=%d",
				bp.Peek(id) != nil, bp.DirtyWriteBacks, store.ImageCount())
		}

		p = bp.Fix(ctx, id)
		defer bp.Unfix(ctx, p, false)
		if store.Restored != 1 {
			t.Errorf("Restored = %d, want 1", store.Restored)
		}
		if err := checkSlots(p, ref); err != nil {
			t.Errorf("after the round trip: %v", err)
		}
		if !bytes.Equal(imageOf(t, p), ref.Image()) {
			t.Error("restored image differs from the eager reference")
		}
	})
}

// TestRetainedImagesAreCompact drives random updates, and a few deletes and
// inserts, through a Figure-14-shaped pool — 8 frames over 200 pages of
// 250-byte rows — so that nearly every page is evicted dirty and fetched
// back. The store retains each as its versions, and its keys once
// reshaped: at most 12 bytes per slot and 64 of bookkeeping, where the byte
// page retained 8 KB. Every page fetched back holds what the byte reference
// driven through the same writes holds.
func TestRetainedImagesAreCompact(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		tab := &Table{ID: 1, Name: "rows", RowBytes: 250}
		tab.NumRows = 200 * tab.RowsPerPage()
		store := NewPageStore()
		store.AddTable(tab)
		bp := NewBufferPool(store, MMapDisk(), 8)
		refs := map[PageID]*refPage{}
		rng := rand.New(rand.NewSource(14))
		next := tab.NumRows
		for i := 0; i < 5000; i++ {
			rid := tab.Locate(rng.Int63n(tab.NumRows))
			ref := refs[rid.Page]
			if ref == nil {
				ref = refSynthesizePage(tab, rid.Page.No)
				refs[rid.Page] = ref
			}
			p := bp.Fix(ctx, rid.Page)
			if err := checkSlots(p, ref); err != nil {
				t.Fatalf("write %d, page %v as fetched: %v", i, rid.Page, err)
			}
			if v, ok := p.Version(rid.Slot); ok && rng.Intn(10) > 0 {
				row, _ := ref.Get(rid.Slot)
				p.SetVersion(rid.Slot, v+1)
				ref.Update(rid.Slot, bumped(row))
			} else if ok {
				p.Delete(rid.Slot)
				ref.Delete(rid.Slot)
			} else {
				rec := make([]byte, tab.RowBytes)
				tab.SynthesizeRow(next, rec)
				got, _ := p.Insert(next)
				if want, _ := ref.Insert(rec); got != want {
					t.Fatalf("write %d: insert landed in slot %d, reference %d", i, got, want)
				}
				next++
			}
			bp.Unfix(ctx, p, true)
		}
		reshaped := 0
		limit := 12*int(tab.RowsPerPage()) + 64
		for id, img := range store.images {
			if img.keys != nil {
				reshaped++
			}
			if n := int(unsafe.Sizeof(img)) + 4*cap(img.vers) + 8*cap(img.keys); n > limit {
				t.Errorf("page %v is retained in %d bytes, want <= %d", id, n, limit)
			}
		}
		if store.ImageCount() < 150 || reshaped == 0 || bp.DirtyWriteBacks < 4000 {
			t.Fatalf("setup: %d pages retained, %d reshaped, %d write-backs", store.ImageCount(), reshaped, bp.DirtyWriteBacks)
		}
	})
}

// TestPrewarmStaysLazy: prewarming counts one synthesis per page, as it
// always did, and cuts no array.
func TestPrewarmStaysLazy(t *testing.T) {
	tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 10000}
	store := poisonedStore(t, tab)
	bp := NewBufferPool(store, MMapDisk(), 40)
	bp.Prewarm(8)
	if store.Synthesized != 32 || store.Restored != 0 || bp.Resident() != 32 {
		t.Errorf("synthesized=%d restored=%d resident=%d, want 32, 0, 32",
			store.Synthesized, store.Restored, bp.Resident())
	}
	if bp.Hits+bp.Misses != 0 {
		t.Errorf("prewarm moved the hit/miss counters: %d/%d", bp.Hits, bp.Misses)
	}
	for no := int64(0); no < 32; no++ {
		p := bp.Peek(PageID{Table: tab.ID, No: no})
		if p == nil || p.vers != nil || p.keys != nil || p.Dirty {
			t.Fatalf("page %d: prewarm wrote to the page", no)
		}
	}
}

// TestTableIDsIndexTheStore: tables are found by id in a slice with gaps, an
// unregistered or out-of-slice id finds nothing, and ids the slice cannot
// hold, or held twice, are refused.
func TestTableIDsIndexTheStore(t *testing.T) {
	s := NewPageStore()
	a, b := &Table{ID: 3, Name: "a", RowBytes: 8, NumRows: 1}, &Table{ID: 1, Name: "b", RowBytes: 8, NumRows: 1}
	s.AddTable(a)
	s.AddTable(b)
	if s.Table(3) != a || s.Table(1) != b || s.Table(2) != nil || s.Table(7) != nil || s.Table(-1) != nil {
		t.Error("Table(id) does not return exactly the registered tables")
	}
	if got := s.SortedTables(); len(got) != 2 || got[0] != b || got[1] != a {
		t.Errorf("SortedTables = %v, want [b a]", got)
	}
	for _, bad := range []*Table{{ID: 1, Name: "dup"}, {ID: -1, Name: "neg"}, {ID: MaxTableID + 1, Name: "far"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddTable(id %d) did not panic", bad.ID)
				}
			}()
			s.AddTable(bad)
		}()
	}
}

// benchMisses drives b.N buffer-pool misses through a warm pool — every
// miss evicts a clean page and takes over its struct — and applies touch to
// each missed page.
func benchMisses(b *testing.B, touch func(p *Page)) {
	withCtx(b, func(ctx *exec.Ctx) {
		tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 31 * 4096}
		store := NewPageStore()
		store.AddTable(tab)
		bp := NewBufferPool(store, MMapDisk(), 64)
		miss := func(i int) {
			p := bp.Fix(ctx, PageID{Table: tab.ID, No: int64(i) % tab.NumPages()})
			touch(p)
			bp.Unfix(ctx, p, false)
		}
		for i := 0; i < 256; i++ { // warm: pool full, ring and frame table grown
			miss(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			miss(256 + i)
		}
	})
}

var benchSink int

// BenchmarkFetchFirstTouch is what a transaction pays for a cold page: miss,
// read one row's version, unfix. It allocates nothing: the Page struct is
// the last victim's (CI gates on it).
func BenchmarkFetchFirstTouch(b *testing.B) {
	benchMisses(b, func(p *Page) {
		v, _ := p.Version(7)
		benchSink += int(v)
	})
}

// BenchmarkUpdateRowFirstTouch is the first write of a page: one row's
// version bumped on each of many resident pages nobody wrote, in a pool
// large enough not to evict. The write cuts the page's version array from
// the store's arena, 4 bytes a slot, and it reports the heap objects that
// costs per write (allocs/write; CI gates it at 0.02): an allocation per
// page would read 1.
func BenchmarkUpdateRowFirstTouch(b *testing.B) {
	const pages = 4096
	var mallocs uint64
	withCtx(b, func(ctx *exec.Ctx) {
		var bp *BufferPool
		var ms runtime.MemStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%pages == 0 {
				b.StopTimer()
				if bp != nil {
					runtime.ReadMemStats(&ms)
					mallocs += ms.Mallocs
				}
				tab := &Table{ID: 1, Name: "rows", RowBytes: 250}
				tab.NumRows = pages * tab.RowsPerPage()
				store := NewPageStore()
				store.AddTable(tab)
				bp = NewBufferPool(store, MMapDisk(), pages)
				bp.Prewarm(0)
				runtime.ReadMemStats(&ms)
				mallocs -= ms.Mallocs
				b.StartTimer()
			}
			p := bp.Fix(ctx, PageID{Table: 1, No: int64(i % pages)})
			v, _ := p.Version(7)
			p.SetVersion(7, v+1)
			bp.Unfix(ctx, p, true)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs
	})
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/write")
}
