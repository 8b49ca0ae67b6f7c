package storage

import (
	"encoding/binary"
	"fmt"
)

// Table describes a fixed-width table whose rows are synthesized
// deterministically. Virtual tables let experiments address multi-gigabyte
// datasets (Figure 14 grows to 120M rows) while holding only what was
// written: the row versions of written pages (see Page); pages dirtied and
// evicted persist in the deployment's PageStore, so updates are never lost.
type Table struct {
	ID       TableID
	Name     string
	RowBytes int // fixed once any method has been called
	NumRows  int64

	perPage int64 // RowsPerPage, computed on first use
}

// RowsPerPage returns how many rows fit a page.
func (t *Table) RowsPerPage() int64 {
	if t.perPage == 0 {
		t.perPage = rowsPerPage(t.RowBytes)
	}
	return t.perPage
}

func rowsPerPage(rowBytes int) int64 {
	per := int64((PageSize - pageHeaderSize) / (rowBytes + slotSize))
	if per < 1 {
		panic(fmt.Sprintf("storage: row of %d bytes does not fit a page", rowBytes))
	}
	return per
}

// NumPages returns the number of pages the table occupies.
func (t *Table) NumPages() int64 {
	per := t.RowsPerPage()
	return (t.NumRows + per - 1) / per
}

// Bytes returns the total size of the row data.
func (t *Table) Bytes() int64 { return t.NumRows * int64(t.RowBytes) }

// Locate returns the RID of a row key (rows are laid out in key order).
func (t *Table) Locate(key int64) RID {
	per := t.RowsPerPage()
	return RID{Page: PageID{Table: t.ID, No: key / per}, Slot: uint16(key % per)}
}

// KeyRangeOfPage returns the half-open key interval stored on page no.
func (t *Table) KeyRangeOfPage(no int64) (lo, hi int64) {
	per := t.RowsPerPage()
	lo = no * per
	hi = lo + per
	if hi > t.NumRows {
		hi = t.NumRows
	}
	return lo, hi
}

// SynthesizeRow writes the deterministic initial image of row key into buf,
// which must be RowBytes long: the key, a version counter (0), and a filler
// pattern derived from the key so tests can detect corruption. A row the
// engine holds is this image with its version written in; a Page keeps only
// the version (see Page).
func (t *Table) SynthesizeRow(key int64, buf []byte) {
	if len(buf) != t.RowBytes {
		panic("storage: SynthesizeRow buffer size mismatch")
	}
	binary.LittleEndian.PutUint64(buf[0:8], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:16], 0) // version
	pattern := byte(key*2654435761 + int64(t.ID))
	for i := 16; i < len(buf); i++ {
		buf[i] = pattern + byte(i)
	}
}

// SynthesizePage returns page no as a buffer-pool miss formats it: every row
// the table's synthesized row, no array cut until its first write.
func (t *Table) SynthesizePage(no int64) *Page {
	p := &Page{ID: PageID{Table: t.ID, No: no}, arena: new(arena)}
	p.format(t, no)
	return p
}
