package storage

import (
	"encoding/binary"
	"fmt"
)

// Table describes a fixed-width table whose rows are synthesized
// deterministically on first touch. Virtual tables let experiments address
// multi-gigabyte datasets (Figure 14 grows to 120M rows) while materializing
// only buffer-pool-resident pages; pages dirtied and evicted persist in the
// deployment's PageStore, so updates are never lost.
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

// rampWords[w] packs filler positions 8w..8w+7 as a little-endian word, so
// the filler loop can emit 8 bytes per step. Sized for the largest row that
// fits a page.
var rampWords = func() [PageSize / 8]uint64 {
	var words [PageSize / 8]uint64
	for w := range words {
		for j := 0; j < 8; j++ {
			words[w] |= uint64(byte(8*w+j)) << (8 * j)
		}
	}
	return words
}()

// SynthesizeRow writes the deterministic initial image of row key into buf,
// which must be RowBytes long: the key, a version counter (0), and a filler
// pattern derived from the key so tests can detect corruption.
//
// The filler byte at position i is pattern+byte(i); it is produced eight
// bytes at a time with a SWAR carryless byte add over the precomputed ramp,
// because row synthesis is the hottest storage loop (every first update of a
// row, and every write-back of a page, runs it).
func (t *Table) SynthesizeRow(key int64, buf []byte) {
	if len(buf) != t.RowBytes {
		panic("storage: SynthesizeRow buffer size mismatch")
	}
	binary.LittleEndian.PutUint64(buf[0:8], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:16], 0) // version
	pattern := byte(key*2654435761 + int64(t.ID))
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		high = 0x8080808080808080
	)
	pp := uint64(pattern) * 0x0101010101010101
	i := 16
	for ; i+8 <= len(buf); i += 8 {
		r := rampWords[i/8]
		sum := (r&low7 + pp&low7) ^ ((r ^ pp) & high)
		binary.LittleEndian.PutUint64(buf[i:i+8], sum)
	}
	for ; i < len(buf); i++ {
		buf[i] = pattern + byte(i)
	}
}

// SynthesizePage builds the complete initial image of page no: every row
// synthesized, every byte defined. The buffer pool's miss path formats the
// same page but defines no byte of it until one is needed (see Page.lazy).
func (t *Table) SynthesizePage(no int64) *Page {
	p := &Page{ID: PageID{Table: t.ID, No: no}, data: make([]byte, PageSize)}
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

// BumpRowVersion increments the version counter in a row image, the canonical
// "update" performed by the paper's update microbenchmark.
func BumpRowVersion(row []byte) {
	binary.LittleEndian.PutUint64(row[8:16], RowVersion(row)+1)
}
