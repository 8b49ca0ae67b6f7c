// Package storage implements the data substrate of the engine: slotted heap
// pages, fixed-width virtual tables, a B+tree index, a buffer pool with
// clock eviction, and virtual disks. It corresponds to the lower half of
// Shore-MT in the paper's prototype.
package storage

import (
	"fmt"
	"math"
	"unsafe"

	"islands/internal/latch"
	"islands/internal/mem"
)

// PageSize is the size of a database page in bytes (Shore-MT default).
const PageSize = 8192

// pageHeaderSize is the fixed header: nSlots(2) freeOff(2) pad(4) pageLSN(8).
const pageHeaderSize = 16

// slotSize is one slot directory entry: offset(2) length(2).
const slotSize = 4

// TableID identifies a table within a deployment.
type TableID int32

// TableDecl declares one global table of a deployment. It is the one
// declaration type every layer shares: a workload says which tables it
// needs, a Config carries them, a trace embeds them as its schema.
type TableDecl struct {
	ID       TableID
	Name     string
	RowBytes int
	Rows     int64 // global row count, range-partitioned over instances
}

// PageID identifies a page: a table and a page number within it.
type PageID struct {
	Table TableID
	No    int64
}

func (p PageID) String() string { return fmt.Sprintf("t%d.p%d", p.Table, p.No) }

// RID is a record identifier: page plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

// holeKey is the key a reshaped page's key array holds for a deleted slot.
const holeKey = -1

// Page is one slotted page of a table, held as what a transaction can change
// and nothing else. Every row the engine holds is its table's synthesized
// row (Table.SynthesizeRow) with the version counter moved, so a page keeps,
// per slot, the row's version — and its key and liveness only once an Insert
// or Delete has made them differ from the table's arithmetic, slot i live
// with key firstKey+i. The space arithmetic is the slotted page's: every
// slot, live or deleted, holds a RowBytes row and a slot directory entry
// (FreeSpace), so slot numbers, page-full and hole reuse are those of the
// byte page the engine kept until it held versions
// (TestPageMatchesByteReference).
//
// A row's version is below 2³²: a page keeps it in 32 bits (see
// SetVersion), and a row would need 2³² updates to pass it.
//
// A page in a buffer pool keeps its frame state and its header's coherence
// line in its Frame, and has a Page struct only once something needed one
// (see Frame); HeaderLine reaches the line from the struct.
//
// The fields are ordered for the host's cache, not for reading: what a
// Key or Version read and an Unfix touch comes first, the key array of a
// reshaped page right after it — on 64-bit hosts the struct is 128 bytes,
// and in a buffer pool's slab (see BufferPool.newPage) it starts on a
// cache-line boundary, so its first 64 bytes are one cache line — then the
// table, the arena, the id and the latch.
// TestPageHitPathLeadsTheStruct pins the order. Both arrays are held as a
// pointer to their first element: their length is always slots and their
// capacity RowsPerPage (see versions and keyArray), so two slice headers
// would spend 32 bytes on lengths the page already has.
type Page struct {
	// vers points at every slot's version; nil while the page was never
	// written, when every version is 0. The page's first write cuts it from
	// the store's arena, with room for RowsPerPage slots.
	vers     *uint32
	firstKey int64 // key of slot 0 while the page is not reshaped
	frame    *Frame
	slots    int32
	holes    int32 // deleted slots available for reuse

	// reshaped says keys is set: a read of a page that is not tests this
	// and stays on the leading cache line.
	reshaped bool
	Dirty    bool

	// keys points at every slot's key, holeKey for a deleted one, once the
	// page is reshaped: the first Insert or Delete that breaks slot i = key
	// firstKey+i cuts it from the store's arena, with room for RowsPerPage
	// slots.
	keys  *int64
	tab   *Table
	arena *arena
	ID    PageID
	Latch latch.RW
}

// Frame returns the buffer-pool frame of the page, nil outside a pool.
func (p *Page) Frame() *Frame { return p.frame }

// HeaderLine returns the coherence-tracked proxy for the page's hot
// metadata (header word, latch word), which its buffer-pool frame holds.
func (p *Page) HeaderLine() *mem.Line { return &p.frame.Line }

// init makes p, whose ID is set, the page of store s that image img holds
// (see PageStore.resolve).
func (p *Page) init(s *PageStore, img image) {
	t := s.Table(p.ID.Table)
	p.tab, p.arena, p.firstKey = t, &s.arena, p.ID.No*t.RowsPerPage()
	p.load(img)
}

// format makes p page no of table t as a miss finds it: nobody wrote it, so
// it holds no array, and its slots are implied by t.
func (p *Page) format(t *Table, no int64) {
	lo, hi := t.KeyRangeOfPage(no)
	p.tab, p.firstKey, p.slots = t, lo, int32(hi-lo)
}

// capacity is the most slots the page can have: RowsPerPage, the rows of its
// table that fit it with their directory entries.
func (p *Page) capacity() int { return int(p.tab.RowsPerPage()) }

// versions returns the version array, one element per slot; nil while the
// page has none.
func (p *Page) versions() []uint32 {
	if p.vers == nil {
		return nil
	}
	return unsafe.Slice(p.vers, p.slots)
}

// keyArray returns the key array, one element per slot; nil while the page
// is not reshaped.
func (p *Page) keyArray() []int64 {
	if p.keys == nil {
		return nil
	}
	return unsafe.Slice(p.keys, p.slots)
}

// NumSlots returns the number of slots, deleted ones included.
func (p *Page) NumSlots() int { return int(p.slots) }

// FreeSpace returns the bytes available for a new record plus its slot: the
// page less its header and, for every slot, live or deleted, a RowBytes row
// and a directory entry.
func (p *Page) FreeSpace() int {
	return max(PageSize-pageHeaderSize-int(p.slots)*(p.tab.RowBytes+slotSize)-slotSize, 0)
}

// live reports whether slot holds a row: in range and not deleted.
func (p *Page) live(slot uint16) bool {
	return int32(slot) < p.slots && (!p.reshaped || p.keyArray()[slot] != holeKey)
}

// Key returns the key of the row at slot; ok is false for out-of-range or
// deleted slots. It writes nothing: a read defines no array.
func (p *Page) Key(slot uint16) (key int64, ok bool) {
	switch {
	case !p.live(slot):
		return 0, false
	case p.reshaped:
		return p.keyArray()[slot], true
	}
	return p.firstKey + int64(slot), true
}

// Version returns the version counter of the row at slot; ok is false for
// out-of-range or deleted slots.
func (p *Page) Version(slot uint16) (v uint64, ok bool) {
	if !p.live(slot) {
		return 0, false
	}
	if p.vers != nil {
		v = uint64(p.versions()[slot])
	}
	return v, true
}

// SetVersion sets the version counter of the row at slot — an update, its
// undo or its redo — and dirties the page; ok is false for out-of-range or
// deleted slots. A version of 2³² or more breaks the page's contract (see
// Page) and panics, naming the page and slot.
func (p *Page) SetVersion(slot uint16, v uint64) bool {
	if !p.live(slot) {
		return false
	}
	if v > math.MaxUint32 {
		panic(fmt.Sprintf("storage: version %d of page %v slot %d does not fit 32 bits", v, p.ID, slot))
	}
	if p.vers == nil {
		vers := cut(&p.arena.vers, int(p.slots), p.capacity(), arenaBytes/4)
		clear(vers)
		p.vers = unsafe.SliceData(vers)
	}
	p.versions()[slot] = uint32(v)
	p.Dirty = true
	return true
}

// reshape gives the page its key array, before the first Insert or Delete
// that makes a slot differ from firstKey+slot.
func (p *Page) reshape() {
	if p.reshaped {
		return
	}
	p.reshaped = true
	keys := cut(&p.arena.keys, int(p.slots), p.capacity(), arenaBytes/8)
	for i := range keys {
		keys[i] = p.firstKey + int64(i)
	}
	p.keys = unsafe.SliceData(keys)
}

// grow appends a slot holding key, or a deleted one for holeKey, at version
// 0; the caller has checked that the page has room for it. The arrays were
// cut with room for every slot the page can have, so growing them is only
// counting one more slot.
func (p *Page) grow(key int64) {
	n := p.slots
	if int(n) >= p.capacity() {
		panic("storage: page " + p.ID.String() + " grown past its capacity")
	}
	if key != p.firstKey+int64(n) {
		p.reshape()
	}
	p.slots++
	if p.reshaped {
		p.keyArray()[n] = key
	}
	if p.vers != nil {
		p.versions()[n] = 0
	}
	if key == holeKey {
		p.holes++
	}
}

// Insert adds a row for key, at version 0, and returns its slot: the lowest
// deleted slot, else a new one after the last. ok is false when the page is
// full or key is negative.
func (p *Page) Insert(key int64) (slot uint16, ok bool) {
	if key < 0 {
		return 0, false
	}
	// The hole counter lets the common hole-free page skip the scan.
	if p.holes > 0 {
		keys := p.keyArray()
		for i, k := range keys {
			if k == holeKey {
				keys[i] = key
				if p.vers != nil {
					p.versions()[i] = 0
				}
				p.holes--
				p.Dirty = true
				return uint16(i), true
			}
		}
	}
	if p.FreeSpace() < p.tab.RowBytes {
		return 0, false
	}
	p.grow(key)
	p.Dirty = true
	return uint16(p.slots - 1), true
}

// Delete removes the row at slot, leaving a hole for a later Insert.
func (p *Page) Delete(slot uint16) bool {
	if !p.live(slot) {
		return false
	}
	p.reshape()
	p.keyArray()[slot] = holeKey
	p.holes++
	p.Dirty = true
	return true
}

// Place makes slot a live row of key at version v — redo of a logged update
// or insert, which names the slot the row held — first growing the page
// with deleted slots up to it if it lies beyond the last. ok is false, and
// the page untouched, for a slot the page cannot have, a negative key or a
// version of 2³² or more: a log record holding one is unappliable, not a
// reason to panic.
func (p *Page) Place(slot uint16, key int64, v uint64) bool {
	if int(slot) >= p.capacity() || key < 0 || v > math.MaxUint32 {
		return false
	}
	for p.slots < int32(slot) {
		p.grow(holeKey)
	}
	if p.slots == int32(slot) {
		p.grow(key)
	}
	if k, ok := p.Key(slot); !ok || k != key {
		p.reshape()
		keys := p.keyArray()
		if keys[slot] == holeKey {
			p.holes--
		}
		keys[slot] = key
	}
	return p.SetVersion(slot, v)
}

// RowVersionSum sums the version counters of the page's rows and leaves the
// page untouched.
func (p *Page) RowVersionSum() uint64 {
	var sum uint64
	for i, v := range p.versions() {
		if p.live(uint16(i)) {
			sum += uint64(v)
		}
	}
	return sum
}
