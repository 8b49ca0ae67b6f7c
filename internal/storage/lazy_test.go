package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"islands/internal/exec"
)

// The tests in this file pin the invariants behind lazy pages and the
// unzeroed, recycled arena: no byte of a page is read before the filled
// bitmap or materialize says it was written, and a read defines no byte —
// fetching a page and asking for keys leaves its buffer exactly as the pool
// handed it out. They make stale contents loud by poisoning every pooled
// chunk first.

const poison = 0xA5

// poisonedStore returns a store over tabs whose first chunk comes out of the
// process-wide pool overwritten with the poison byte: a scratch store makes
// sure the pool holds a chunk, then every pooled chunk is poisoned.
func poisonedStore(t *testing.T, tabs ...*Table) *PageStore {
	t.Helper()
	scratch := NewPageStore()
	scratch.newPageData()
	scratch.Release()

	chunkPool.Lock()
	for _, c := range chunkPool.free {
		for i := range c {
			c[i] = poison
		}
	}
	chunkPool.Unlock()

	s := NewPageStore()
	for _, tab := range tabs {
		s.AddTable(tab)
	}
	t.Cleanup(s.Release)
	return s
}

// lazyTables are the geometries the issue names: the smallest row (408
// slots, every bitmap word in use), the benchmark's 250-byte row, and a
// wide row with a large free gap; each ends in a short last page.
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

// TestLazyPageOverPoisonedArena: whatever order a page is read, updated and
// imaged in, its image equals the eager synthesis with the same updates —
// header pad, every row and the free gap — although the buffer started as
// poison.
func TestLazyPageOverPoisonedArena(t *testing.T) {
	type op func(t *testing.T, p, ref *Page)
	getSubset := func(t *testing.T, p, ref *Page) {
		for s := 0; s < p.NumSlots(); s += 3 {
			got, ok := p.Get(uint16(s))
			want, _ := ref.Get(uint16(s))
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("slot %d: lazy row differs from eager row", s)
			}
		}
	}
	update := func(t *testing.T, p, ref *Page) {
		// Slots both inside and outside the Get subset, first and last.
		for _, s := range []int{0, 1, 3, p.NumSlots() - 1} {
			if s >= p.NumSlots() {
				continue
			}
			row, _ := ref.Get(uint16(s))
			after := bumped(row)
			if !p.Update(uint16(s), after) || !ref.Update(uint16(s), after) {
				t.Fatal("update refused")
			}
		}
	}
	// Get, which never reads the directory of a lazy page, returns exactly
	// the bytes the directory points at once materialize has written it.
	getViaDirectory := func(t *testing.T, p, ref *Page) {
		rows := make([][]byte, p.NumSlots())
		for s := range rows {
			rows[s], _ = p.Get(uint16(s))
		}
		m := materialized(p)
		for s, got := range rows {
			off, length := m.dirSlot(s)
			want, _ := ref.Get(uint16(s))
			if len(got) != length || &got[0] != &p.data[off] || !bytes.Equal(got, want) {
				t.Fatalf("slot %d: Get does not return the directory's bytes", s)
			}
		}
	}
	// A read defines no byte: KeyAt answers every slot as Get on the eager
	// reference does, and neither the buffer nor the bitmap moves.
	keys := func(t *testing.T, p, ref *Page) {
		data, filled := bytes.Clone(p.data), p.filled
		for s := 0; s < p.NumSlots()+2; s++ {
			if err := checkKeyAt(p, ref, uint16(s)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(p.data, data) || p.filled != filled {
			t.Fatal("key reads wrote to the page")
		}
	}
	image := func(t *testing.T, p, ref *Page) {
		if !bytes.Equal(p.Image(), ref.Image()) {
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
					p := s.Fetch(PageID{Table: tab.ID, No: no})
					// A miss writes the Page struct and nothing else.
					if p.lazy == nil || !bytes.Equal(p.data, bytes.Repeat([]byte{poison}, PageSize)) {
						t.Fatal("fetched page is not lazy over untouched poison")
					}
					ref := tab.SynthesizePage(no)
					for _, o := range ops {
						o(t, p, ref)
						checkSlotArithmetic(t, p)
					}
				}
			})
		}
	}
}

// materialized returns what p becomes once every byte of it is defined: p
// itself when it is not lazy, a materialized copy over a copy of its buffer
// otherwise, so looking leaves a lazy page as lazy as it was.
func materialized(p *Page) *Page {
	if p.lazy == nil {
		return p
	}
	m := &Page{data: bytes.Clone(p.data), slots: p.slots, lazy: p.lazy, firstKey: p.firstKey, filled: p.filled}
	m.materialize()
	return m
}

// checkSlotArithmetic holds a page to what its struct claims about its
// buffer: the slot count and the free offset equal the header words and,
// while the page is lazy, every slot resolved by arithmetic is the slot
// directory's entry — all three as materialize is going to write them. It
// defines no byte of p.
func checkSlotArithmetic(t *testing.T, p *Page) {
	t.Helper()
	m := materialized(p)
	if header := int(binary.LittleEndian.Uint16(m.data[0:2])); p.slots != header {
		t.Fatalf("struct says %d slots, page header %d", p.slots, header)
	}
	if header := int(binary.LittleEndian.Uint16(m.data[2:4])); p.freeOff() != header {
		t.Fatalf("freeOff says %d, page header %d", p.freeOff(), header)
	}
	if p.lazy == nil {
		return
	}
	for i := 0; i < p.slots; i++ {
		off, length := p.slot(i)
		if dirOff, dirLen := m.dirSlot(i); off != dirOff || length != dirLen {
			t.Fatalf("slot %d: arithmetic says %d+%d, directory %d+%d", i, off, length, dirOff, dirLen)
		}
	}
}

// TestRecycledBufferIsRedefined: an evicted page's buffer goes to the next
// miss with its old rows still in it; the new page must not show them.
func TestRecycledBufferIsRedefined(t *testing.T) {
	tab := lazyTables()[1]
	s := poisonedStore(t, tab)
	a := s.Fetch(PageID{Table: tab.ID, No: 0})
	a.materialize()
	buf := &a.data[0]
	s.Recycle(a)
	b := s.Fetch(PageID{Table: tab.ID, No: tab.NumPages() - 1}) // short page: stale rows beyond its last slot
	if &b.data[0] != buf {
		t.Fatal("recycled buffer was not reused")
	}
	if !bytes.Equal(b.Image(), tab.SynthesizePage(tab.NumPages()-1).Image()) {
		t.Error("page over a recycled buffer differs from eager synthesis")
	}
}

// pagePair is a lazily synthesized page over a poisoned buffer and its
// eagerly materialized reference, driven through the same operations.
type pagePair struct {
	id        PageID
	lazy, ref *Page
}

func newPagePair(t *testing.T, tab *Table, no int64) *pagePair {
	id := PageID{Table: tab.ID, No: no}
	return &pagePair{id: id, lazy: poisonedStore(t, tab).Fetch(id), ref: tab.SynthesizePage(no)}
}

// checkKeyAt demands that p.KeyAt(slot) is the key and length of the row
// ref.Get(slot) returns. Only a table row has a key: a record shorter than
// one (the differential tests insert some) is skipped.
func checkKeyAt(p, ref *Page, slot uint16) error {
	want, wok := ref.Get(slot)
	if wok && len(want) < 8 {
		return nil
	}
	key, length, ok := p.KeyAt(slot)
	if ok != wok || ok && (key != RowKey(want) || length != len(want)) {
		return fmt.Errorf("KeyAt(%d) = %d,%d,%v, Get says %x,%v", slot, key, length, ok, want, wok)
	}
	return nil
}

// The operations pagePair.step knows.
const (
	opGet = iota
	opKeyAt
	opUpdate
	opInsert
	opDelete
	opImage
	opVersionSum
	opReload
	pageOps
)

// step applies operation op to both pages — slot is its target, rec the
// record of an Update or Insert — and returns how they disagree, if they do.
func (pp *pagePair) step(op int, slot uint16, rec []byte) error {
	lazy, ref := pp.lazy, pp.ref
	switch op {
	case opGet:
		got, ok := lazy.Get(slot)
		want, wok := ref.Get(slot)
		if ok != wok || !bytes.Equal(got, want) {
			return fmt.Errorf("Get(%d) = %x,%v want %x,%v", slot, got, ok, want, wok)
		}
	case opKeyAt:
		if err := checkKeyAt(lazy, ref, slot); err != nil {
			return err
		}
	case opUpdate:
		if got, want := lazy.Update(slot, rec), ref.Update(slot, rec); got != want {
			return fmt.Errorf("Update(%d) = %v want %v", slot, got, want)
		}
	case opInsert:
		got, ok := lazy.Insert(rec)
		want, wok := ref.Insert(rec)
		if got != want || ok != wok {
			return fmt.Errorf("Insert = %d,%v want %d,%v", got, ok, want, wok)
		}
	case opDelete:
		if got, want := lazy.Delete(slot), ref.Delete(slot); got != want {
			return fmt.Errorf("Delete(%d) = %v want %v", slot, got, want)
		}
	case opImage:
		if !bytes.Equal(lazy.Image(), ref.Image()) {
			return fmt.Errorf("Image differs")
		}
	case opVersionSum:
		if got, want := lazy.RowVersionSum(), ref.RowVersionSum(); got != want {
			return fmt.Errorf("RowVersionSum = %d want %d", got, want)
		}
	case opReload:
		pp.lazy, pp.ref = LoadPage(pp.id, lazy.Image()), LoadPage(pp.id, ref.Image())
		lazy, ref = pp.lazy, pp.ref
	}
	if lazy.NumSlots() != ref.NumSlots() || lazy.FreeSpace() != ref.FreeSpace() || lazy.Dirty != ref.Dirty {
		return fmt.Errorf("slots/free/dirty = %d/%d/%v want %d/%d/%v", lazy.NumSlots(), lazy.FreeSpace(),
			lazy.Dirty, ref.NumSlots(), ref.FreeSpace(), ref.Dirty)
	}
	return nil
}

// finish demands equal final images, with the header's slot count the
// struct's.
func (pp *pagePair) finish() error {
	img := pp.lazy.Image()
	if !bytes.Equal(img, pp.ref.Image()) {
		return fmt.Errorf("final image differs")
	}
	if header := int(binary.LittleEndian.Uint16(img[0:2])); pp.lazy.slots != header {
		return fmt.Errorf("struct says %d slots, image header %d", pp.lazy.slots, header)
	}
	return nil
}

// TestLazyPageMatchesEagerReference drives a lazy page and an eagerly
// materialized reference through the same random operations and demands
// identical results at every step.
func TestLazyPageMatchesEagerReference(t *testing.T) {
	// Reads dominate, as in the engine; a reload is rare.
	ops := []int{opGet, opGet, opGet, opGet, opKeyAt, opKeyAt, opKeyAt, opUpdate, opUpdate, opUpdate,
		opInsert, opDelete, opImage, opVersionSum, opReload}
	for _, tab := range lazyTables() {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			no := rng.Int63n(tab.NumPages())
			if seed%4 == 0 {
				no = tab.NumPages() - 1 // the short page
			}
			pp := newPagePair(t, tab, no)
			for step := 0; step < 400; step++ {
				slot := uint16(rng.Intn(pp.lazy.NumSlots() + 2))
				op := ops[rng.Intn(len(ops))]
				// Row-sized records update rows and refill holes; short ones
				// fit the gap of even the 408-slot page.
				rec := make([]byte, tab.RowBytes)
				if op == opInsert && rng.Intn(2) == 0 {
					rec = rec[:2+rng.Intn(10)]
				}
				rng.Read(rec)
				if err := pp.step(op, slot, rec); err != nil {
					t.Fatalf("%s seed %d step %d: %v", tab.Name, seed, step, err)
				}
				checkSlotArithmetic(t, pp.lazy)
				checkSlotArithmetic(t, pp.ref)
			}
			if err := pp.finish(); err != nil {
				t.Fatalf("%s seed %d: %v", tab.Name, seed, err)
			}
		}
	}
}

// FuzzPageOps interprets its input as a script over a lazy page and its
// eager reference: a table, a page, then four bytes per step — operation,
// slot (two bytes) and the byte a record is built from.
func FuzzPageOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 3, 9, 2, 0, 3, 7, 1, 0, 3, 0, 4, 0, 3, 0, 3, 0, 0, 1, 1, 0, 3, 0, 5, 0, 0, 0}) // update, delete, reinsert, key
	f.Add([]byte{0, 3, 1, 1, 151, 0, 3, 0, 0, 4, 7, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})                       // the short page: insert, reload, reads
	f.Add([]byte{2, 1, 1, 0, 0, 0, 1, 0, 11, 0, 6, 0, 0, 0, 2, 0, 12, 5, 1, 0, 12, 0})                      // key reads around an update
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		tab := lazyTables()[int(script[0])%3]
		pp := newPagePair(t, tab, int64(script[1])%tab.NumPages())
		for step, s := 0, script[2:]; len(s) >= 4; step, s = step+1, s[4:] {
			op := int(s[0]) % pageOps
			slot := (uint16(s[1])<<8 | uint16(s[2])) % uint16(pp.lazy.NumSlots()+2)
			rec := make([]byte, tab.RowBytes)
			if op == opInsert && s[3]&1 == 0 {
				rec = rec[:2+int(s[3]>>1)%10]
			}
			for i := range rec {
				rec[i] = s[3] + byte(i)
			}
			if err := pp.step(op, slot, rec); err != nil {
				t.Fatalf("%s step %d: %v", tab.Name, step, err)
			}
			checkSlotArithmetic(t, pp.lazy)
		}
		if err := pp.finish(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHalfFilledDirtyPageRoundTrip evicts a dirty page of which only some
// rows were ever touched, and reads all of it back from the retained image.
func TestHalfFilledDirtyPageRoundTrip(t *testing.T) {
	withCtx(t, func(ctx *exec.Ctx) {
		tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 10000}
		store := poisonedStore(t, tab)
		bp := NewBufferPool(store, MMapDisk(), 4)
		id := PageID{Table: tab.ID, No: 0}
		ref := tab.SynthesizePage(0)

		p := bp.Fix(ctx, id)
		for s := 0; s < p.NumSlots()/2; s++ {
			row, _ := p.Get(uint16(s))
			if s%2 == 0 {
				after := bumped(row)
				p.Update(uint16(s), after)
				ref.Update(uint16(s), after)
			}
		}
		// An update of a row that was never read.
		last := uint16(p.NumSlots() - 1)
		row, _ := ref.Get(last)
		after := bumped(row)
		p.Update(last, after)
		ref.Update(last, after)
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
		for s := 0; s < ref.NumSlots(); s++ {
			got, ok := p.Get(uint16(s))
			want, _ := ref.Get(uint16(s))
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("slot %d differs after the round trip", s)
			}
		}
		if !bytes.Equal(p.Image(), ref.Image()) {
			t.Error("restored image differs from the eager reference")
		}
	})
}

// TestPrewarmStaysLazy: prewarming counts one synthesis per page, as it
// always did, and synthesizes no row.
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
		if p == nil || p.lazy == nil || p.filled != [filledWords]uint64{} {
			t.Fatalf("page %d: prewarm synthesized rows", no)
		}
	}
}

// TestReleasedStorePanics: a store whose chunks went back to the pool must
// refuse to hand out pages.
func TestReleasedStorePanics(t *testing.T) {
	tab := lazyTables()[1]
	s := NewPageStore()
	s.AddTable(tab)
	s.Fetch(PageID{Table: tab.ID, No: 0})
	s.Release()
	s.Release() // idempotent: nothing left to hand back
	defer func() {
		if recover() == nil {
			t.Error("Fetch from a released store did not panic")
		}
	}()
	s.Fetch(PageID{Table: tab.ID, No: 1})
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

// TestChunksReturnToPoolOnce: Release hands every chunk back exactly once.
func TestChunksReturnToPoolOnce(t *testing.T) {
	tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 10000}
	pooled := func() int {
		chunkPool.Lock()
		defer chunkPool.Unlock()
		return len(chunkPool.free)
	}
	s := NewPageStore()
	s.AddTable(tab)
	before := pooled()
	for no := int64(0); no < 2*arenaChunkPages+1; no++ {
		s.Fetch(PageID{Table: tab.ID, No: no})
	}
	taken := len(s.chunks)
	if taken != 3 {
		t.Fatalf("store holds %d chunks, want 3", taken)
	}
	held := pooled()
	s.Release()
	s.Release()
	if got := pooled(); got != held+taken || got < before {
		t.Errorf("pool went %d -> %d -> %d chunks around a store of %d", before, held, got, taken)
	}
	seen := map[*byte]bool{}
	chunkPool.Lock()
	for _, c := range chunkPool.free {
		if seen[&c[0]] {
			t.Error("a chunk is in the pool twice")
		}
		seen[&c[0]] = true
	}
	chunkPool.Unlock()
}

// benchMisses drives b.N buffer-pool misses through a warm pool — every
// miss evicts a clean page and takes over its recycled buffer, so the store
// never reaches for a new chunk — and applies touch to each missed page.
func benchMisses(b *testing.B, touch func(p *Page)) {
	withCtx(b, func(ctx *exec.Ctx) {
		tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 31 * 4096}
		store := NewPageStore()
		defer store.Release()
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
// read one row, unfix. It allocates nothing: the Page struct is the last
// victim's (CI gates on it).
func BenchmarkFetchFirstTouch(b *testing.B) {
	benchMisses(b, func(p *Page) {
		row, _ := p.Get(7)
		benchSink += len(row)
	})
}

// BenchmarkFetchMaterialize is the full price of a page — miss, then every
// row synthesized and the image copied — which only a dirty eviction pays.
func BenchmarkFetchMaterialize(b *testing.B) {
	benchMisses(b, func(p *Page) { benchSink += len(p.Image()) })
}
