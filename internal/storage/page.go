// Package storage implements the data substrate of the engine: slotted heap
// pages, fixed-width virtual tables, a B+tree index, a buffer pool with
// clock eviction, and virtual disks. It corresponds to the lower half of
// Shore-MT in the paper's prototype.
package storage

import (
	"fmt"

	"islands/internal/latch"
	"islands/internal/mem"
	"islands/internal/sim"
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
// HeaderLine is the coherence-tracked proxy for the page's hot metadata
// (header word, latch word): every fix/latch of the page touches it, so
// cross-core sharing of pages shows up in the memory model.
//
// The fields are ordered for the host's cache, not for reading: what a
// buffer-pool hit followed by Key or Version touches comes first — on 64-bit
// hosts the struct is 256 bytes, and alone or in a buffer pool's slab (see
// BufferPool.newPage) it starts on a 256-byte boundary, so its first 64 bytes
// are one cache line — then HeaderLine, then the key array of a reshaped
// page, the table and the latch. TestPageHitPathLeadsTheStruct pins the
// order.
type Page struct {
	// vers holds every slot's version; nil while the page was never written,
	// when every version is 0. The page's first write cuts it from the
	// store's arena, with room for RowsPerPage slots.
	vers     []uint64
	slots    int
	firstKey int64 // key of slot 0 while the page is not reshaped

	// Buffer-pool frame state, owned by the BufferPool caching the page.
	pins    int
	ref     bool
	loading bool

	// reshaped says keys is set: a read of a page that is not tests this
	// and stays on the leading cache line.
	reshaped   bool
	Dirty      bool
	HeaderLine mem.Line

	ID      PageID
	PageLSN uint64
	holes   int // deleted slots available for reuse

	// keys holds every slot's key, holeKey for a deleted one, once the page
	// is reshaped: the first Insert or Delete that breaks slot i = key
	// firstKey+i cuts it from the store's arena, with room for RowsPerPage
	// slots.
	keys    []int64
	tab     *Table
	arena   *arena
	waiters []*sim.Proc
	Latch   latch.RW
	_       [24]byte // fills the struct to 256 bytes (see above)
}

// format makes p page no of table t as a miss finds it: nobody wrote it, so
// it holds no array, and its slots are implied by t.
func (p *Page) format(t *Table, no int64) {
	lo, hi := t.KeyRangeOfPage(no)
	p.tab, p.firstKey, p.slots = t, lo, int(hi-lo)
}

// capacity is the most slots the page can have: RowsPerPage, the rows of its
// table that fit it with their directory entries.
func (p *Page) capacity() int { return int(p.tab.RowsPerPage()) }

// NumSlots returns the number of slots, deleted ones included.
func (p *Page) NumSlots() int { return p.slots }

// FreeSpace returns the bytes available for a new record plus its slot: the
// page less its header and, for every slot, live or deleted, a RowBytes row
// and a directory entry.
func (p *Page) FreeSpace() int {
	return max(PageSize-pageHeaderSize-p.slots*(p.tab.RowBytes+slotSize)-slotSize, 0)
}

// live reports whether slot holds a row: in range and not deleted.
func (p *Page) live(slot uint16) bool {
	return int(slot) < p.slots && (!p.reshaped || p.keys[slot] != holeKey)
}

// Key returns the key of the row at slot; ok is false for out-of-range or
// deleted slots. It writes nothing: a read defines no array.
func (p *Page) Key(slot uint16) (key int64, ok bool) {
	switch {
	case !p.live(slot):
		return 0, false
	case p.reshaped:
		return p.keys[slot], true
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
		v = p.vers[slot]
	}
	return v, true
}

// SetVersion sets the version counter of the row at slot — an update, its
// undo or its redo — and dirties the page; ok is false for out-of-range or
// deleted slots.
func (p *Page) SetVersion(slot uint16, v uint64) bool {
	if !p.live(slot) {
		return false
	}
	if p.vers == nil {
		p.vers = cut(&p.arena.vers, p.slots, p.capacity())
		clear(p.vers)
	}
	p.vers[slot] = v
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
	p.keys = cut(&p.arena.keys, p.slots, p.capacity())
	for i := range p.keys {
		p.keys[i] = p.firstKey + int64(i)
	}
}

// grow appends a slot holding key, or a deleted one for holeKey, at version
// 0; the caller has checked that the page has room for it.
func (p *Page) grow(key int64) {
	n := p.slots
	if key != p.firstKey+int64(n) {
		p.reshape()
	}
	if p.reshaped {
		p.keys = append(p.keys, key)
	}
	if p.vers != nil {
		p.vers = append(p.vers, 0)
	}
	if key == holeKey {
		p.holes++
	}
	p.slots++
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
		for i, k := range p.keys {
			if k == holeKey {
				p.keys[i] = key
				if p.vers != nil {
					p.vers[i] = 0
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
	p.keys[slot] = holeKey
	p.holes++
	p.Dirty = true
	return true
}

// Place makes slot a live row of key at version v — redo of a logged update
// or insert, which names the slot the row held — first growing the page
// with deleted slots up to it if it lies beyond the last. ok is false for a
// slot the page cannot have or a negative key.
func (p *Page) Place(slot uint16, key int64, v uint64) bool {
	if int(slot) >= p.capacity() || key < 0 {
		return false
	}
	for p.slots < int(slot) {
		p.grow(holeKey)
	}
	if p.slots == int(slot) {
		p.grow(key)
	}
	if k, ok := p.Key(slot); !ok || k != key {
		p.reshape()
		if p.keys[slot] == holeKey {
			p.holes--
		}
		p.keys[slot] = key
	}
	return p.SetVersion(slot, v)
}

// RowVersionSum sums the version counters of the page's rows and leaves the
// page untouched.
func (p *Page) RowVersionSum() uint64 {
	var sum uint64
	for i, v := range p.vers {
		if p.live(uint16(i)) {
			sum += v
		}
	}
	return sum
}
