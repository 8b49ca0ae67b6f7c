// Package storage implements the data substrate of the engine: slotted heap
// pages, fixed-width virtual tables, a B+tree index, a buffer pool with
// clock eviction, and virtual disks. It corresponds to the lower half of
// Shore-MT in the paper's prototype.
package storage

import (
	"encoding/binary"
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

// minRowBytes is the smallest table row (key + version, see SynthesizeRow);
// it bounds the slots of a synthesized page and so the filled bitmap.
const minRowBytes = 16

// filledWords sizes Page.filled for the most slots a synthesized page can
// have (408 rows of minRowBytes).
const filledWords = ((PageSize-pageHeaderSize)/(minRowBytes+slotSize) + 63) / 64

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

// Page is a slotted page. Records grow from the header down; the slot
// directory grows from the end up. A deleted slot has length 0 and may be
// reused by a later insert of equal or smaller size.
//
// HeaderLine is the coherence-tracked proxy for the page's hot metadata
// (header word, latch word): every fix/latch of the page touches it, so
// cross-core sharing of pages shows up in the memory model.
//
// The fields are ordered for the host's cache, not for reading: what a
// buffer-pool hit followed by Get touches comes first — on 64-bit hosts the
// struct is 256 bytes, an allocation class of its own, so its first 64 bytes
// are one cache line — then HeaderLine; the path reads one word of filled
// while the page is lazy and goes to the 8 KB buffer only for the row itself.
// TestPageHitPathLeadsTheStruct pins the order.
type Page struct {
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
	// or materialize says it was written — the invariant that lets the store
	// recycle buffers without clearing them, and a read-only page never touch
	// its buffer at all (see KeyAt).
	//
	// A lazy page's layout is a function of its table: slot i is RowBytes
	// long at pageHeaderSize + i*RowBytes and the free space starts after the
	// last row, because every operation that changes the layout (Insert,
	// Delete) materializes first. So slot and freeOff answer a lazy page by
	// that arithmetic, and the slot count lives in the struct.
	lazy     *Table
	firstKey int64 // key of slot 0 while lazy

	// Buffer-pool frame state, owned by the BufferPool caching the page.
	pins    int
	ref     bool
	loading bool

	Dirty      bool
	ownsData   bool // buffer came from the store's arena (see PageStore.Recycle)
	HeaderLine mem.Line

	ID      PageID
	PageLSN uint64
	holes   int // deleted slots available for reuse
	waiters []*sim.Proc
	filled  [filledWords]uint64
	Latch   latch.RW
}

// NewPage returns an empty formatted page.
func NewPage(id PageID) *Page {
	p := &Page{ID: id, data: make([]byte, PageSize)}
	p.setFreeOff(pageHeaderSize)
	return p
}

// format makes p page no of table t over p.data, whose prior contents are
// arbitrary and stay so: the page is lazy, its layout implied by t (see
// Page.lazy) until materialize writes it down.
func (p *Page) format(t *Table, no int64) {
	lo, hi := t.KeyRangeOfPage(no)
	p.slots = int(hi - lo)
	p.lazy, p.firstKey = t, lo
}

// unfilled reports whether the row at slot of a lazy page is still
// undefined; always false once the page is materialized.
func (p *Page) unfilled(slot int) bool {
	return p.lazy != nil && p.filled[slot>>6]&(1<<(slot&63)) == 0
}

func (p *Page) setFilled(slot int) { p.filled[slot>>6] |= 1 << (slot & 63) }

// fill synthesizes the row at slot of a lazy page.
func (p *Page) fill(slot int) {
	off, length := p.slot(slot)
	p.lazy.SynthesizeRow(p.firstKey+int64(slot), p.data[off:off+length])
	p.setFilled(slot)
}

// materialize defines every byte of a lazy page that is still undefined —
// the header, the slot directory, the unsynthesized rows and the free gap —
// and ends the lazy state. Every operation that reads or moves bytes beyond
// a single row calls it first.
func (p *Page) materialize() {
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

// LoadPage wraps an existing image (from the backing store) as a page.
func LoadPage(id PageID, img []byte) *Page {
	p := &Page{ID: id}
	p.load(img)
	return p
}

func (p *Page) load(img []byte) {
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
func (p *Page) Image() []byte {
	p.materialize()
	img := make([]byte, PageSize)
	copy(img, p.data)
	return img
}

// setNSlots sets the slot count, in the struct and in the on-page header
// (which Image persists and load reads back).
func (p *Page) setNSlots(n int) {
	p.slots = n
	binary.LittleEndian.PutUint16(p.data[0:2], uint16(n))
}

// freeOff returns where the free space starts: after the last row of a lazy
// page (see Page.lazy), from the header word otherwise.
func (p *Page) freeOff() int {
	if t := p.lazy; t != nil {
		return pageHeaderSize + p.slots*t.RowBytes
	}
	return int(binary.LittleEndian.Uint16(p.data[2:4]))
}
func (p *Page) setFreeOff(o int) { binary.LittleEndian.PutUint16(p.data[2:4], uint16(o)) }

func (p *Page) slotPos(i int) int { return PageSize - (i+1)*slotSize }

// slot returns the offset and length of slot i, which must be < p.slots:
// by arithmetic while the page is lazy (see Page.lazy), from the slot
// directory otherwise.
func (p *Page) slot(i int) (off, length int) {
	if t := p.lazy; t != nil {
		return pageHeaderSize + i*t.RowBytes, t.RowBytes
	}
	return p.dirSlot(i)
}

// dirSlot reads slot i's entry from the slot directory.
func (p *Page) dirSlot(i int) (off, length int) {
	pos := p.slotPos(i)
	return int(binary.LittleEndian.Uint16(p.data[pos : pos+2])),
		int(binary.LittleEndian.Uint16(p.data[pos+2 : pos+4]))
}

func (p *Page) setSlot(i, off, length int) {
	pos := p.slotPos(i)
	binary.LittleEndian.PutUint16(p.data[pos:pos+2], uint16(off))
	binary.LittleEndian.PutUint16(p.data[pos+2:pos+4], uint16(length))
}

// NumSlots returns the number of slot directory entries (including deleted).
func (p *Page) NumSlots() int { return p.slots }

// FreeSpace returns the bytes available for a new record plus its slot.
func (p *Page) FreeSpace() int {
	free := PageSize - p.slots*slotSize - p.freeOff() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec and returns its slot. ok is false when the page is full.
// Records must be at least 2 bytes so deleted slots can remember their hole
// capacity in place.
func (p *Page) Insert(rec []byte) (slot uint16, ok bool) {
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
func (p *Page) Get(slot uint16) (rec []byte, ok bool) {
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
func (p *Page) KeyAt(slot uint16) (key int64, length int, ok bool) {
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
func (p *Page) Update(slot uint16, rec []byte) bool {
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
func (p *Page) Delete(slot uint16) bool {
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
func (p *Page) RowVersionSum() uint64 {
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
