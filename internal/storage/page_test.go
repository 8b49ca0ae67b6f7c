package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// emptyPage returns page 0 of an empty table of rowBytes-byte rows: no slot
// until an Insert.
func emptyPage(rowBytes int) *Page {
	return (&Table{ID: 1, Name: "rows", RowBytes: rowBytes}).SynthesizePage(0)
}

// rowAt returns the key and version of the row at slot, ok false for an
// out-of-range or deleted slot, and fails the test if Key and Version
// disagree on whether the slot holds a row.
func rowAt(t testing.TB, p *Page, slot uint16) (key int64, v uint64, ok bool) {
	t.Helper()
	key, ok = p.Key(slot)
	v, vok := p.Version(slot)
	if ok != vok {
		t.Fatalf("slot %d: Key says live=%v, Version live=%v", slot, ok, vok)
	}
	return key, v, ok
}

func TestPageInsertGetRoundtrip(t *testing.T) {
	p := emptyPage(100)
	s1, ok := p.Insert(10)
	if !ok {
		t.Fatal("insert failed on empty page")
	}
	s2, ok := p.Insert(11)
	if !ok || s2 == s1 {
		t.Fatal("second insert failed or reused slot")
	}
	if key, v, ok := rowAt(t, p, s1); !ok || key != 10 || v != 0 {
		t.Errorf("slot %d = key %d version %d (%v), want key 10 version 0", s1, key, v, ok)
	}
	if key, _, ok := rowAt(t, p, s2); !ok || key != 11 {
		t.Errorf("slot %d = key %d (%v), want 11", s2, key, ok)
	}
	if !p.Dirty {
		t.Error("page not marked dirty after insert")
	}
}

func TestPageUpdateInPlace(t *testing.T) {
	p := emptyPage(64)
	s, _ := p.Insert(0)
	if !p.SetVersion(s, 5) {
		t.Fatal("SetVersion failed")
	}
	if _, v, _ := rowAt(t, p, s); v != 5 {
		t.Errorf("version = %d, want 5", v)
	}
	if p.SetVersion(s+1, 1) {
		t.Error("SetVersion of an absent slot succeeded")
	}
}

func TestPageDeleteAndReuse(t *testing.T) {
	p := emptyPage(100)
	s1, _ := p.Insert(0)
	p.Insert(1)
	p.SetVersion(s1, 3)
	if !p.Delete(s1) {
		t.Fatal("delete failed")
	}
	if _, _, ok := rowAt(t, p, s1); ok {
		t.Error("deleted slot still readable")
	}
	if p.Delete(s1) || p.SetVersion(s1, 1) {
		t.Error("double delete or update of a hole succeeded")
	}
	s3, ok := p.Insert(7)
	if !ok || s3 != s1 {
		t.Errorf("insert did not reuse hole: slot %d, want %d", s3, s1)
	}
	if key, v, _ := rowAt(t, p, s3); key != 7 || v != 0 {
		t.Errorf("reused slot holds key %d version %d, want 7 and 0", key, v)
	}
}

func TestPageFillsUntilFull(t *testing.T) {
	p := emptyPage(250)
	n := 0
	for {
		if _, ok := p.Insert(int64(n)); !ok {
			break
		}
		n++
	}
	// 8192 - 16 header = 8176; each row needs 250+4 = 254 -> 32 rows.
	if n != 32 {
		t.Errorf("page held %d 250-byte rows, want 32", n)
	}
	if p.FreeSpace() >= 254 {
		t.Errorf("FreeSpace = %d after filling", p.FreeSpace())
	}
}

func TestPageRejectsDegenerateRecords(t *testing.T) {
	p := emptyPage(100)
	if _, ok := p.Insert(-1); ok {
		t.Error("negative key accepted")
	}
	if _, _, ok := rowAt(t, p, 99); ok {
		t.Error("read of absent slot succeeded")
	}
	if p.SetVersion(99, 1) || p.Delete(99) {
		t.Error("write of absent slot succeeded")
	}
	if p.Place(uint16(p.capacity()), 5, 1) || p.Place(0, -1, 1) {
		t.Error("Place beyond the page's capacity or of a negative key succeeded")
	}
}

// TestPageImageRoundtrip: a written page retained by its store comes back,
// slot for slot, on the next fetch.
func TestPageImageRoundtrip(t *testing.T) {
	tab := &Table{ID: 2, Name: "rows", RowBytes: 100, NumRows: 100}
	s := NewPageStore()
	s.AddTable(tab)
	id := PageID{Table: 2, No: 1}
	p := s.Fetch(id)
	p.SetVersion(3, 9)
	p.Delete(4)
	slot, _ := p.Insert(500)
	s.WriteBack(p)
	q := s.Fetch(id)
	if s.Restored != 1 || q.NumSlots() != p.NumSlots() {
		t.Fatalf("restored %d pages, %d slots; want 1 and %d", s.Restored, q.NumSlots(), p.NumSlots())
	}
	for i := 0; i < p.NumSlots(); i++ {
		k1, v1, ok1 := rowAt(t, p, uint16(i))
		k2, v2, ok2 := rowAt(t, q, uint16(i))
		if k1 != k2 || v1 != v2 || ok1 != ok2 {
			t.Errorf("slot %d: %d/%d/%v before the round trip, %d/%d/%v after", i, k1, v1, ok1, k2, v2, ok2)
		}
	}
	if key, _, _ := rowAt(t, q, slot); key != 500 {
		t.Errorf("inserted key came back as %d", key)
	}
}

// TestPageModelProperty runs random operations against a map model.
func TestPageModelProperty(t *testing.T) {
	type row struct {
		key int64
		v   uint64
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := emptyPage(80)
		model := map[uint16]row{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0:
				key := rng.Int63n(1000)
				if s, ok := p.Insert(key); ok {
					model[s] = row{key: key}
				}
			case 1:
				for s, r := range model {
					r.v = rng.Uint64()
					if !p.SetVersion(s, r.v) {
						return false
					}
					model[s] = r
					break
				}
			case 2:
				for s := range model {
					if !p.Delete(s) {
						return false
					}
					delete(model, s)
					break
				}
			}
		}
		for s := 0; s < p.NumSlots(); s++ {
			key, v, ok := rowAt(t, p, uint16(s))
			want, live := model[uint16(s)]
			if ok != live || ok && (key != want.key || v != want.v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTableGeometry(t *testing.T) {
	tab := &Table{ID: 3, Name: "rows", RowBytes: 250, NumRows: 1000}
	if tab.RowsPerPage() != 32 {
		t.Errorf("RowsPerPage = %d, want 32", tab.RowsPerPage())
	}
	if tab.NumPages() != 32 { // ceil(1000/32) = 32
		t.Errorf("NumPages = %d, want 32", tab.NumPages())
	}
	rid := tab.Locate(500)
	if rid.Page.No != 15 || rid.Slot != uint16(500-15*32) {
		t.Errorf("Locate(500) = %+v", rid)
	}
	lo, hi := tab.KeyRangeOfPage(31)
	if lo != 992 || hi != 1000 {
		t.Errorf("last page range = [%d,%d), want [992,1000)", lo, hi)
	}
}

func TestSynthesizePageContents(t *testing.T) {
	tab := &Table{ID: 3, Name: "rows", RowBytes: 250, NumRows: 100}
	p := tab.SynthesizePage(2)
	lo, hi := tab.KeyRangeOfPage(2)
	if int64(p.NumSlots()) != hi-lo {
		t.Fatalf("page has %d slots, want %d", p.NumSlots(), hi-lo)
	}
	for key := lo; key < hi; key++ {
		got, v, ok := rowAt(t, p, uint16(key-lo))
		if !ok || got != key || v != 0 {
			t.Errorf("row %d: key %d version %d (%v)", key, got, v, ok)
		}
	}
	if p.Dirty || p.vers != nil || p.keys != nil {
		t.Error("synthesized page should start clean, with no array")
	}
}

func TestRowVersionBump(t *testing.T) {
	tab := &Table{ID: 1, RowBytes: 250, NumRows: 10}
	buf := make([]byte, 250)
	tab.SynthesizeRow(5, buf)
	BumpRowVersion(buf)
	BumpRowVersion(buf)
	if RowVersion(buf) != 2 {
		t.Errorf("version = %d, want 2", RowVersion(buf))
	}
	if RowKey(buf) != 5 {
		t.Error("bump corrupted key")
	}
}

// TestPageHitPathLeadsTheStruct pins the field order Page documents: what a
// buffer-pool hit and a Key or Version read sits in the struct's first 64
// bytes, ahead of the key array and the latch, and the struct fills its
// 256-byte allocation class exactly (so the runtime aligns it to host cache
// lines), as does every struct a buffer pool cuts from its slabs.
func TestPageHitPathLeadsTheStruct(t *testing.T) {
	var p Page
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit hosts")
	}
	for name, off := range map[string]uintptr{
		"vers": unsafe.Offsetof(p.vers), "slots": unsafe.Offsetof(p.slots), "firstKey": unsafe.Offsetof(p.firstKey),
		"pins": unsafe.Offsetof(p.pins), "ref": unsafe.Offsetof(p.ref), "loading": unsafe.Offsetof(p.loading),
		"reshaped": unsafe.Offsetof(p.reshaped),
	} {
		if off >= 64 {
			t.Errorf("Page.%s at offset %d: off the leading cache line", name, off)
		}
	}
	if line := unsafe.Offsetof(p.HeaderLine); line >= unsafe.Offsetof(p.keys) || line >= unsafe.Offsetof(p.Latch) {
		t.Errorf("Page.HeaderLine at offset %d: behind the key array or the latch", line)
	}
	if size := unsafe.Sizeof(p); size != 256 {
		t.Errorf("Page is %d bytes, want 256", size)
	}
	bp := NewBufferPool(NewPageStore(), MMapDisk(), 1)
	for i := 0; i < 2*pageSlab; i++ {
		if addr := uintptr(unsafe.Pointer(bp.newPage(PageID{No: int64(i)}))); addr%64 != 0 {
			t.Fatalf("slab struct %d at %#x: not on a cache-line boundary", i, addr)
		}
	}
}
