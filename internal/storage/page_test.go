package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func rec(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestPageInsertGetRoundtrip(t *testing.T) {
	p := NewPage(PageID{Table: 1, No: 0})
	s1, ok := p.Insert(rec(100, 'a'))
	if !ok {
		t.Fatal("insert failed on empty page")
	}
	s2, ok := p.Insert(rec(100, 'b'))
	if !ok || s2 == s1 {
		t.Fatal("second insert failed or reused slot")
	}
	got, ok := p.Get(s1)
	if !ok || !bytes.Equal(got, rec(100, 'a')) {
		t.Error("Get(s1) mismatch")
	}
	got, ok = p.Get(s2)
	if !ok || !bytes.Equal(got, rec(100, 'b')) {
		t.Error("Get(s2) mismatch")
	}
	if !p.Dirty {
		t.Error("page not marked dirty after insert")
	}
}

func TestPageUpdateInPlace(t *testing.T) {
	p := NewPage(PageID{})
	s, _ := p.Insert(rec(64, 'x'))
	if !p.Update(s, rec(64, 'y')) {
		t.Fatal("update failed")
	}
	got, _ := p.Get(s)
	if !bytes.Equal(got, rec(64, 'y')) {
		t.Error("update not visible")
	}
	if p.Update(s, rec(63, 'z')) {
		t.Error("update with different length should fail (fixed-width)")
	}
}

func TestPageDeleteAndReuse(t *testing.T) {
	p := NewPage(PageID{})
	s1, _ := p.Insert(rec(100, 'a'))
	p.Insert(rec(100, 'b'))
	if !p.Delete(s1) {
		t.Fatal("delete failed")
	}
	if _, ok := p.Get(s1); ok {
		t.Error("deleted slot still readable")
	}
	if p.Delete(s1) {
		t.Error("double delete succeeded")
	}
	s3, ok := p.Insert(rec(100, 'c'))
	if !ok || s3 != s1 {
		t.Errorf("insert did not reuse hole: slot %d, want %d", s3, s1)
	}
	got, _ := p.Get(s3)
	if !bytes.Equal(got, rec(100, 'c')) {
		t.Error("reused slot content wrong")
	}
}

func TestPageFillsUntilFull(t *testing.T) {
	p := NewPage(PageID{})
	n := 0
	for {
		if _, ok := p.Insert(rec(250, 'r')); !ok {
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
	p := NewPage(PageID{})
	if _, ok := p.Insert([]byte{1}); ok {
		t.Error("1-byte record accepted")
	}
	if _, ok := p.Insert(make([]byte, PageSize+1)); ok {
		t.Error("oversized record accepted")
	}
	if _, ok := p.Get(99); ok {
		t.Error("Get of absent slot succeeded")
	}
}

func TestPageImageRoundtrip(t *testing.T) {
	p := NewPage(PageID{Table: 2, No: 7})
	s, _ := p.Insert(rec(100, 'q'))
	img := p.Image()
	q := LoadPage(p.ID, img)
	got, ok := q.Get(s)
	if !ok || !bytes.Equal(got, rec(100, 'q')) {
		t.Error("image roundtrip lost record")
	}
}

// TestPageModelProperty runs random operations against a map model.
func TestPageModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPage(PageID{})
		model := map[uint16]byte{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0:
				fill := byte(rng.Intn(256))
				if s, ok := p.Insert(rec(80, fill)); ok {
					model[s] = fill
				}
			case 1:
				for s := range model {
					fill := byte(rng.Intn(256))
					if !p.Update(s, rec(80, fill)) {
						return false
					}
					model[s] = fill
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
		for s, fill := range model {
			got, ok := p.Get(s)
			if !ok || !bytes.Equal(got, rec(80, fill)) {
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
		row, ok := p.Get(uint16(key - lo))
		if !ok {
			t.Fatalf("row %d missing", key)
		}
		if RowKey(row) != key {
			t.Errorf("row %d has key %d", key, RowKey(row))
		}
		if RowVersion(row) != 0 {
			t.Errorf("fresh row version = %d", RowVersion(row))
		}
	}
	if p.Dirty {
		t.Error("synthesized page should start clean")
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
// buffer-pool hit and a Get read sits in the struct's first 64 bytes, ahead
// of the filled bitmap and the latch, and the struct fills its 256-byte
// allocation class exactly (so the runtime aligns it to host cache lines),
// as does every struct a buffer pool cuts from its slabs.
func TestPageHitPathLeadsTheStruct(t *testing.T) {
	var p Page
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit hosts")
	}
	for name, off := range map[string]uintptr{
		"data": unsafe.Offsetof(p.data), "slots": unsafe.Offsetof(p.slots), "lazy": unsafe.Offsetof(p.lazy),
		"pins": unsafe.Offsetof(p.pins), "ref": unsafe.Offsetof(p.ref), "loading": unsafe.Offsetof(p.loading),
	} {
		if off >= 64 {
			t.Errorf("Page.%s at offset %d: off the leading cache line", name, off)
		}
	}
	if line := unsafe.Offsetof(p.HeaderLine); line >= unsafe.Offsetof(p.filled) || line >= unsafe.Offsetof(p.Latch) {
		t.Errorf("Page.HeaderLine at offset %d: behind the bitmap or the latch", line)
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
