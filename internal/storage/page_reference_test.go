package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refPage is the byte-backed slotted page the engine kept until pages held
// only row versions: an 8 KB buffer per page with a header, a slot
// directory and every written row's bytes, synthesized lazily. It is kept,
// verbatim but for the names and the buffer-pool frame state it carried, as
// the reference TestPageMatchesByteReference and FuzzPageOps drive side by
// side with Page: whatever a script does to both, every slot's key, version
// and liveness, every Insert's slot, FreeSpace and RowVersionSum must agree.

// minRowBytes is the smallest table row (key + version, see SynthesizeRow);
// it bounds the slots of a synthesized page and so the filled bitmap.
const minRowBytes = 16

// filledWords sizes refPage.filled for the most slots a synthesized page can
// have (408 rows of minRowBytes).
const filledWords = ((PageSize-pageHeaderSize)/(minRowBytes+slotSize) + 63) / 64

// refPage is a slotted page. Records grow from the header down; the slot
// directory grows from the end up. A deleted slot has length 0 and may be
// reused by a later insert of equal or smaller size.
type refPage struct {
	data []byte

	// slots mirrors the slot count in the buffer's header word (setNSlots
	// writes both), so bounds checks never read the buffer.
	slots int

	// Lazy synthesis state. A page synthesized from its table definition is
	// formatted over an arbitrary, unzeroed buffer, and format writes none of
	// it. While lazy is non-nil, the row at slot i holds defined bytes only
	// once bit i of filled is set (Get synthesizes it, Update overwrites it);
	// the header words, the slot directory and the free gap between the last
	// row and the directory are undefined. materialize defines everything
	// that is left and clears lazy. No byte of data is read before the bitmap
	// or materialize says it was written.
	//
	// A lazy page's layout is a function of its table: slot i is RowBytes
	// long at pageHeaderSize + i*RowBytes and the free space starts after the
	// last row, because every operation that changes the layout (Insert,
	// Delete) materializes first. So slot and freeOff answer a lazy page by
	// that arithmetic, and the slot count lives in the struct.
	lazy     *Table
	firstKey int64 // key of slot 0 while lazy

	Dirty  bool
	ID     PageID
	holes  int // deleted slots available for reuse
	filled [filledWords]uint64
}

// newRefPage returns an empty formatted page.
func newRefPage(id PageID) *refPage {
	p := &refPage{ID: id, data: make([]byte, PageSize)}
	p.setFreeOff(pageHeaderSize)
	return p
}

// format makes p page no of table t over p.data, whose prior contents are
// arbitrary and stay so: the page is lazy, its layout implied by t (see
// refPage.lazy) until materialize writes it down.
func (p *refPage) format(t *Table, no int64) {
	lo, hi := t.KeyRangeOfPage(no)
	p.slots = int(hi - lo)
	p.lazy, p.firstKey = t, lo
}

// unfilled reports whether the row at slot of a lazy page is still
// undefined; always false once the page is materialized.
func (p *refPage) unfilled(slot int) bool {
	return p.lazy != nil && p.filled[slot>>6]&(1<<(slot&63)) == 0
}

func (p *refPage) setFilled(slot int) { p.filled[slot>>6] |= 1 << (slot & 63) }

// fill synthesizes the row at slot of a lazy page.
func (p *refPage) fill(slot int) {
	off, length := p.slot(slot)
	p.lazy.SynthesizeRow(p.firstKey+int64(slot), p.data[off:off+length])
	p.setFilled(slot)
}

// materialize defines every byte of a lazy page that is still undefined —
// the header, the slot directory, the unsynthesized rows and the free gap —
// and ends the lazy state. Every operation that reads or moves bytes beyond
// a single row calls it first.
func (p *refPage) materialize() {
	t := p.lazy
	if t == nil {
		return
	}
	n := p.slots
	off := pageHeaderSize
	for i := 0; i < n; i++ {
		if p.unfilled(i) {
			p.fill(i)
		}
		p.setSlot(i, off, t.RowBytes)
		off += t.RowBytes
	}
	clear(p.data[:pageHeaderSize])
	p.setNSlots(n)
	p.setFreeOff(off)
	clear(p.data[off : PageSize-n*slotSize])
	p.lazy = nil
}

// loadRefPage wraps an existing image (from the backing store) as a page.
func loadRefPage(id PageID, img []byte) *refPage {
	p := &refPage{ID: id}
	p.load(img)
	return p
}

func (p *refPage) load(img []byte) {
	if len(img) != PageSize {
		panic("storage: page image has wrong size")
	}
	p.data = img
	p.slots = int(binary.LittleEndian.Uint16(img[0:2]))
	for i := 0; i < p.slots; i++ {
		if _, length := p.slot(i); length == 0 {
			p.holes++
		}
	}
}

// Image returns a copy of the page bytes for the backing store.
func (p *refPage) Image() []byte {
	p.materialize()
	img := make([]byte, PageSize)
	copy(img, p.data)
	return img
}

// setNSlots sets the slot count, in the struct and in the on-page header
// (which Image persists and load reads back).
func (p *refPage) setNSlots(n int) {
	p.slots = n
	binary.LittleEndian.PutUint16(p.data[0:2], uint16(n))
}

// freeOff returns where the free space starts: after the last row of a lazy
// page (see refPage.lazy), from the header word otherwise.
func (p *refPage) freeOff() int {
	if t := p.lazy; t != nil {
		return pageHeaderSize + p.slots*t.RowBytes
	}
	return int(binary.LittleEndian.Uint16(p.data[2:4]))
}
func (p *refPage) setFreeOff(o int) { binary.LittleEndian.PutUint16(p.data[2:4], uint16(o)) }

func (p *refPage) slotPos(i int) int { return PageSize - (i+1)*slotSize }

// slot returns the offset and length of slot i, which must be < p.slots:
// by arithmetic while the page is lazy (see refPage.lazy), from the slot
// directory otherwise.
func (p *refPage) slot(i int) (off, length int) {
	if t := p.lazy; t != nil {
		return pageHeaderSize + i*t.RowBytes, t.RowBytes
	}
	return p.dirSlot(i)
}

// dirSlot reads slot i's entry from the slot directory.
func (p *refPage) dirSlot(i int) (off, length int) {
	pos := p.slotPos(i)
	return int(binary.LittleEndian.Uint16(p.data[pos : pos+2])),
		int(binary.LittleEndian.Uint16(p.data[pos+2 : pos+4]))
}

func (p *refPage) setSlot(i, off, length int) {
	pos := p.slotPos(i)
	binary.LittleEndian.PutUint16(p.data[pos:pos+2], uint16(off))
	binary.LittleEndian.PutUint16(p.data[pos+2:pos+4], uint16(length))
}

// NumSlots returns the number of slot directory entries (including deleted).
func (p *refPage) NumSlots() int { return p.slots }

// FreeSpace returns the bytes available for a new record plus its slot.
func (p *refPage) FreeSpace() int {
	free := PageSize - p.slots*slotSize - p.freeOff() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec and returns its slot. ok is false when the page is full.
// Records must be at least 2 bytes so deleted slots can remember their hole
// capacity in place.
func (p *refPage) Insert(rec []byte) (slot uint16, ok bool) {
	if len(rec) < 2 || len(rec) > PageSize {
		return 0, false
	}
	p.materialize()
	// Reuse a deleted slot when the record fits in its hole; the hole's
	// capacity is stored in its first two bytes (see Delete). The hole
	// counter lets the common hole-free page skip the directory scan.
	if p.holes > 0 {
		for i := 0; i < p.slots; i++ {
			off, length := p.slot(i)
			if length != 0 {
				continue
			}
			capacity := int(binary.LittleEndian.Uint16(p.data[off : off+2]))
			if capacity >= len(rec) {
				p.setSlot(i, off, len(rec))
				copy(p.data[off:off+len(rec)], rec)
				p.holes--
				p.Dirty = true
				return uint16(i), true
			}
		}
	}
	off := p.freeOff()
	if PageSize-p.slots*slotSize-off < len(rec)+slotSize {
		return 0, false
	}
	copy(p.data[off:off+len(rec)], rec)
	n := p.slots
	p.setSlot(n, off, len(rec))
	p.setNSlots(n + 1)
	p.setFreeOff(off + len(rec))
	p.Dirty = true
	return uint16(n), true
}

// Get returns the record at slot. ok is false for out-of-range or deleted
// slots. The returned slice aliases page memory: callers must copy if they
// retain it.
func (p *refPage) Get(slot uint16) (rec []byte, ok bool) {
	if int(slot) >= p.slots {
		return nil, false
	}
	off, length := p.slot(int(slot))
	if length == 0 {
		return nil, false
	}
	if p.unfilled(int(slot)) {
		p.fill(int(slot))
	}
	return p.data[off : off+length], true
}

// KeyAt returns the key and length of the record at slot without defining a
// byte of it: a row of a lazy page that was never written still is what
// SynthesizeRow would make it, so its key is firstKey+slot and its length
// RowBytes by the arithmetic slot uses; any other row answers from its
// stored bytes. A page that is only ever asked this never has its buffer
// touched. ok is false for out-of-range or deleted slots.
func (p *refPage) KeyAt(slot uint16) (key int64, length int, ok bool) {
	if int(slot) >= p.slots {
		return 0, 0, false
	}
	if p.unfilled(int(slot)) {
		return p.firstKey + int64(slot), p.lazy.RowBytes, true
	}
	off, length := p.slot(int(slot))
	if length == 0 {
		return 0, 0, false
	}
	return RowKey(p.data[off : off+length]), length, true
}

// Update overwrites the record at slot in place. The new record must have
// the same length (fixed-width tables); ok is false otherwise.
func (p *refPage) Update(slot uint16, rec []byte) bool {
	if int(slot) >= p.slots {
		return false
	}
	off, length := p.slot(int(slot))
	if length != len(rec) || length == 0 {
		return false
	}
	copy(p.data[off:off+length], rec)
	if p.lazy != nil {
		p.setFilled(int(slot))
	}
	p.Dirty = true
	return true
}

// Delete removes the record at slot, leaving a reusable hole.
func (p *refPage) Delete(slot uint16) bool {
	if int(slot) >= p.slots {
		return false
	}
	off, length := p.slot(int(slot))
	if length == 0 {
		return false
	}
	p.materialize()
	// Remember the hole capacity in the hole itself, mark deleted with
	// length 0 so Get refuses the slot but Insert can reuse the space.
	binary.LittleEndian.PutUint16(p.data[off:off+2], uint16(length))
	p.setSlot(int(slot), off, 0)
	p.holes++
	p.Dirty = true
	return true
}

// RowVersionSum sums the version counters of the page's rows and leaves the
// page untouched: a row not yet synthesized has version 0 by definition.
func (p *refPage) RowVersionSum() uint64 {
	var sum uint64
	for i, n := 0, p.slots; i < n; i++ {
		off, length := p.slot(i)
		if length == 0 || p.unfilled(i) {
			continue
		}
		sum += RowVersion(p.data[off : off+length])
	}
	return sum
}

// refSynthesizePage builds the complete initial image of page no of t:
// every row synthesized, every byte defined.
func refSynthesizePage(t *Table, no int64) *refPage {
	p := &refPage{ID: PageID{Table: t.ID, No: no}, data: make([]byte, PageSize)}
	p.format(t, no)
	p.materialize()
	return p
}

// RowKey extracts the key from a row image.
func RowKey(row []byte) int64 {
	return int64(binary.LittleEndian.Uint64(row[0:8]))
}

// RowVersion extracts the version counter from a row image.
func RowVersion(row []byte) uint64 {
	return binary.LittleEndian.Uint64(row[8:16])
}

// BumpRowVersion increments the version counter in a row image.
func BumpRowVersion(row []byte) {
	binary.LittleEndian.PutUint64(row[8:16], RowVersion(row)+1)
}

// pagePair is a page of a store over a poisoned arena and its byte
// reference, driven through the same operations.
type pagePair struct {
	store *PageStore
	id    PageID
	p     *Page
	ref   *refPage
}

func newPagePair(t testing.TB, tab *Table, no int64) *pagePair {
	s := poisonedStore(t, tab)
	id := PageID{Table: tab.ID, No: no}
	return &pagePair{store: s, id: id, p: s.Fetch(id), ref: refSynthesizePage(tab, no)}
}

// The operations pagePair.step knows.
const (
	opKey = iota
	opVersion
	opBump
	opSetVersion
	opInsert
	opDelete
	opReload
	pageOps
)

// step applies operation op to both pages — slot is its target, val the key
// an Insert adds or the version a SetVersion writes — and returns how they
// disagree, if they do.
func (pp *pagePair) step(op int, slot uint16, val int64) error {
	p, ref := pp.p, pp.ref
	switch op {
	case opKey:
		key, ok := p.Key(slot)
		want, _, wok := ref.KeyAt(slot)
		if ok != wok || key != want {
			return fmt.Errorf("Key(%d) = %d,%v want %d,%v", slot, key, ok, want, wok)
		}
	case opVersion:
		v, ok := p.Version(slot)
		row, wok := ref.Get(slot)
		if ok != wok || ok && v != RowVersion(row) {
			return fmt.Errorf("Version(%d) = %d,%v want %x,%v", slot, v, ok, row, wok)
		}
	case opBump, opSetVersion:
		v, _ := p.Version(slot)
		if op == opBump {
			val = int64(v + 1)
		}
		ok := p.SetVersion(slot, uint64(val))
		row, wok := ref.Get(slot)
		if wok {
			after := append([]byte(nil), row...)
			binary.LittleEndian.PutUint64(after[8:16], uint64(val))
			wok = ref.Update(slot, after)
		}
		if ok != wok {
			return fmt.Errorf("SetVersion(%d) = %v want %v", slot, ok, wok)
		}
	case opInsert:
		got, ok := p.Insert(val)
		rec := make([]byte, p.tab.RowBytes)
		p.tab.SynthesizeRow(val, rec)
		want, wok := ref.Insert(rec)
		if got != want || ok != wok {
			return fmt.Errorf("Insert(%d) = %d,%v want %d,%v", val, got, ok, want, wok)
		}
	case opDelete:
		if got, want := p.Delete(slot), ref.Delete(slot); got != want {
			return fmt.Errorf("Delete(%d) = %v want %v", slot, got, want)
		}
	case opReload:
		pp.store.WriteBack(p)
		pp.p, pp.ref = pp.store.Fetch(pp.id), loadRefPage(pp.id, ref.Image())
		p, ref = pp.p, pp.ref
	}
	if p.Dirty != ref.Dirty || p.RowVersionSum() != ref.RowVersionSum() {
		return fmt.Errorf("dirty/version sum = %v/%d want %v/%d", p.Dirty, p.RowVersionSum(), ref.Dirty, ref.RowVersionSum())
	}
	return checkSlots(p, ref)
}

// TestPageMatchesByteReference drives a page and its byte reference through
// the same random operations and demands identical results after every
// step: each slot's key, version and liveness, each Insert's slot, the free
// space, the version sum and the dirty bit.
func TestPageMatchesByteReference(t *testing.T) {
	// Reads dominate, as in the engine; a reload is rare.
	ops := []int{opKey, opKey, opKey, opVersion, opVersion, opBump, opBump, opBump, opSetVersion,
		opInsert, opInsert, opDelete, opDelete, opReload}
	for _, tab := range lazyTables() {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			no := rng.Int63n(tab.NumPages())
			if seed%4 == 0 {
				no = tab.NumPages() - 1 // the short page
			}
			pp := newPagePair(t, tab, no)
			for step := 0; step < 400; step++ {
				slot := uint16(rng.Intn(pp.p.NumSlots() + 2))
				op := ops[rng.Intn(len(ops))]
				// Half the inserts add the key the table's arithmetic puts
				// in the next slot, half any other.
				val := rng.Int63n(1 << 20)
				if op == opInsert && rng.Intn(2) == 0 {
					val = pp.p.firstKey + int64(pp.p.NumSlots())
				}
				if err := pp.step(op, slot, val); err != nil {
					t.Fatalf("%s seed %d step %d: %v", tab.Name, seed, step, err)
				}
			}
		}
	}
}

// FuzzPageOps interprets its input as a script over a page and its byte
// reference: a table, a page, then four bytes per step — operation, slot
// (two bytes) and a byte that picks an Insert's key or a SetVersion's
// version.
func FuzzPageOps(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 9, 5, 0, 3, 7, 4, 0, 0, 0, 0, 0, 3, 0, 1, 0, 3, 0, 0, 0, 5, 0}) // bump, delete, reinsert, key
	f.Add([]byte{0, 3, 4, 1, 151, 0, 6, 0, 0, 4, 4, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0, 0})           // the short page: insert, reload, reads
	f.Add([]byte{2, 1, 0, 0, 0, 0, 3, 0, 11, 7, 0, 0, 11, 0, 2, 0, 12, 5, 1, 0, 12, 0})         // key reads around a version write
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		tab := lazyTables()[int(script[0])%3]
		pp := newPagePair(t, tab, int64(script[1])%tab.NumPages())
		for step, s := 0, script[2:]; len(s) >= 4; step, s = step+1, s[4:] {
			op := int(s[0]) % pageOps
			slot := (uint16(s[1])<<8 | uint16(s[2])) % uint16(pp.p.NumSlots()+2)
			val := int64(s[3])
			if op == opInsert {
				val = pp.p.firstKey + int64(pp.p.NumSlots())
				if s[3]&1 == 1 {
					val = int64(s[3]>>1) * 7
				}
			}
			if err := pp.step(op, slot, val); err != nil {
				t.Fatalf("%s step %d: %v", tab.Name, step, err)
			}
		}
	})
}
