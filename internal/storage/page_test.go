package storage

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// TestPageModelProperty runs random operations against a map model. Writes
// draw any 64-bit version or one that fits 32 bits: the page refuses one of
// 2³² or more (see Page) — SetVersion panics and the page stays as it was —
// so the model keeps the row's old version.
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
			switch w := rng.Intn(4); w {
			case 0:
				key := rng.Int63n(1000)
				if s, ok := p.Insert(key); ok {
					model[s] = row{key: key}
				}
			case 1, 3:
				for s, r := range model {
					r.v = rng.Uint64()
					if w == 3 {
						r.v = uint64(rng.Uint32())
					}
					if r.v > math.MaxUint32 {
						before := *p
						if !panics(func() { p.SetVersion(s, r.v) }) || *p != before {
							return false
						}
						break
					}
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

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestVersionBoundary pins the 32-bit contract at its edge: 2³²−1 is written
// and read back by SetVersion and by Place, through a write-back and a
// fetch; 2³² makes SetVersion panic naming the page and the slot, and makes
// Place report the record unappliable, the page untouched.
func TestVersionBoundary(t *testing.T) {
	tab := &Table{ID: 2, Name: "rows", RowBytes: 250, NumRows: 100}
	s := NewPageStore()
	s.AddTable(tab)
	id := PageID{Table: 2, No: 1}
	p := s.Fetch(id)
	if !p.SetVersion(3, math.MaxUint32) || !p.Place(5, p.firstKey+5, math.MaxUint32) {
		t.Fatal("a version of 2³²−1 was refused")
	}
	s.WriteBack(p)
	p = s.Fetch(id)
	for _, slot := range []uint16{3, 5} {
		if v, ok := p.Version(slot); !ok || v != math.MaxUint32 {
			t.Errorf("slot %d came back at version %d (%v), want 2³²−1", slot, v, ok)
		}
	}
	if sum := p.RowVersionSum(); sum != 2*math.MaxUint32 {
		t.Errorf("version sum %d, want %d", sum, uint64(2*math.MaxUint32))
	}

	before := *p
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, id.String()) || !strings.Contains(msg, "slot 4") {
				t.Errorf("SetVersion(4, 2³²) panicked with %q, want the page %v and slot 4 named", msg, id)
			}
		}()
		p.SetVersion(4, math.MaxUint32+1)
	}()
	if p.Place(4, p.firstKey+4, math.MaxUint32+1) || p.Place(40, p.firstKey+40, math.MaxUint32+1) {
		t.Error("Place applied a version of 2³²")
	}
	if *p != before {
		t.Error("a refused version changed the page")
	}
	if v, _ := p.Version(4); v != 0 {
		t.Errorf("slot 4 at version %d after refused writes, want 0", v)
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

// TestPageHitPathLeadsTheStruct pins the layouts Frame and Page document.
// A frame is a 24-byte directory entry: the 8-byte struct pointer and 16
// bytes of frame state, a 12-byte mem.Line among them — all an unlatched
// read of an unwritten page touches. In the struct, what a Key or Version
// read and an Unfix touch sits in the first 64 bytes, ahead of the key
// array, and the latch lies past them; the struct is 128 bytes, so every struct a
// buffer pool cuts from its slabs starts on a host cache line.
func TestPageHitPathLeadsTheStruct(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit hosts")
	}
	var f Frame
	if size := unsafe.Sizeof(f.Line); size != 12 {
		t.Errorf("mem.Line is %d bytes, want 12", size)
	}
	if state := unsafe.Sizeof(f) - unsafe.Sizeof(f.page); state > 16 {
		t.Errorf("Frame holds %d bytes of frame state beside its pointer, want <= 16", state)
	}
	var p Page
	hitEnd := uintptr(0)
	for name, end := range map[string]uintptr{
		"vers":     unsafe.Offsetof(p.vers) + unsafe.Sizeof(p.vers),
		"slots":    unsafe.Offsetof(p.slots) + unsafe.Sizeof(p.slots),
		"firstKey": unsafe.Offsetof(p.firstKey) + unsafe.Sizeof(p.firstKey),
		"frame":    unsafe.Offsetof(p.frame) + unsafe.Sizeof(p.frame),
		"reshaped": unsafe.Offsetof(p.reshaped) + unsafe.Sizeof(p.reshaped),
		"Dirty":    unsafe.Offsetof(p.Dirty) + unsafe.Sizeof(p.Dirty),
	} {
		if end > 64 {
			t.Errorf("Page.%s ends at byte %d: off the leading cache line", name, end)
		}
		hitEnd = max(hitEnd, end)
	}
	if keys, l := unsafe.Offsetof(p.keys), unsafe.Offsetof(p.Latch); keys < hitEnd || l < 64 {
		t.Errorf("Page.keys at %d, Page.Latch at %d: ahead of the hit path, which ends at %d", keys, l, hitEnd)
	}
	if size := unsafe.Sizeof(p); size != 128 {
		t.Errorf("Page is %d bytes, want 128", size)
	}
	bp := NewBufferPool(NewPageStore(), MMapDisk(), 1)
	for i := 0; i < 2*pageSlab; i++ {
		if addr := uintptr(unsafe.Pointer(bp.newPage(PageID{No: int64(i)}))); addr%64 != 0 {
			t.Fatalf("slab struct %d at %#x: not on a cache-line boundary", i, addr)
		}
	}
}
