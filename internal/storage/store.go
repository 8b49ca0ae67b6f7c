package storage

import (
	"fmt"
	"unsafe"
)

// PageStore is the backing store behind a buffer pool: it resolves a page
// miss either from the image of a previously evicted dirty page or by
// formatting the page from its table definition.
type PageStore struct {
	tables []*Table // by TableID; nil where none is registered
	images map[PageID]image
	arena  arena

	Synthesized uint64
	Restored    uint64
}

// image is what the store retains of a dirty-evicted page: its slot count
// and its arrays, handed over by the page, not copied — a restored page
// writes them in place, as the page it was did. A page nobody wrote is the
// image of its slot count alone.
type image struct {
	vers  []uint32
	keys  []int64
	slots int
}

// arena holds the unused rest of the chunks the store's pages cut their
// arrays from (see Page.vers and Page.keys): a page's first write takes 4
// bytes per slot from it, its first reshape 8, not one allocation of its
// own. Contents are arbitrary; a page defines every element of its arrays
// before reading it.
type arena struct {
	vers []uint32
	keys []int64
}

// arenaBytes is the size of one arena chunk: 32 KB, the version arrays of
// 256 pages of 250-byte rows (8,192 words) or the key arrays of 128.
const arenaBytes = 32 << 10

// cut returns n elements of *free with capacity c, starting a new chunk of
// chunk elements (at least c) when the rest of the current one is shorter
// than c. The capacity ends where the next cut begins, so an append within it
// never reaches a neighbour. The arena and the B-tree's slabs cut this way.
func cut[T any](free *[]T, n, c, chunk int) []T {
	if len(*free) < c {
		*free = make([]T, max(chunk, c))
	}
	s := (*free)[:n:c]
	*free = (*free)[c:]
	return s
}

// NewPageStore returns an empty store.
func NewPageStore() *PageStore {
	return &PageStore{images: make(map[PageID]image)}
}

// MaxTableID bounds table ids: tables are looked up by id in a slice.
const MaxTableID TableID = 1 << 12

// AddTable registers a table definition. It panics on duplicate or
// out-of-range IDs: table identity is a deployment-time invariant.
func (s *PageStore) AddTable(t *Table) {
	if t.ID < 0 || t.ID > MaxTableID || s.Table(t.ID) != nil {
		panic(fmt.Sprintf("storage: table %s: id %d is taken or outside [0, %d]", t.Name, t.ID, MaxTableID))
	}
	for int(t.ID) >= len(s.tables) {
		s.tables = append(s.tables, nil)
	}
	s.tables[t.ID] = t
}

// Table returns a registered table definition, or nil.
func (s *PageStore) Table(id TableID) *Table {
	if uint(id) < uint(len(s.tables)) {
		return s.tables[id]
	}
	return nil
}

// SortedTables returns table definitions in id order (deterministic
// iteration for prewarming).
func (s *PageStore) SortedTables() []*Table {
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Fetch returns the current contents of page id, outside any buffer pool:
// the retained image of a dirty-evicted page, or the page as its table
// definition formats it.
func (s *PageStore) Fetch(id PageID) *Page {
	p := &Page{ID: id}
	img, _ := s.resolve(id)
	p.init(s, img)
	return p
}

// resolve counts and returns what a miss on page id finds: the retained
// image of a dirty-evicted page, or else (retained false) the image of the
// page as its table formats it, which is only its slot count.
func (s *PageStore) resolve(id PageID) (img image, retained bool) {
	t := s.Table(id.Table)
	if t == nil {
		panic("storage: fetch of page for unknown table")
	}
	if img, retained = s.images[id]; retained {
		s.Restored++
		return img, true
	}
	if id.No < 0 || id.No >= t.NumPages() {
		panic("storage: fetch of page beyond table end")
	}
	s.Synthesized++
	lo, hi := t.KeyRangeOfPage(id.No)
	return image{slots: int(hi - lo)}, false
}

// load gives p the slots and arrays of a retained image.
func (p *Page) load(img image) {
	p.vers, p.keys = unsafe.SliceData(img.vers), unsafe.SliceData(img.keys)
	p.slots, p.reshaped = int32(img.slots), img.keys != nil
	for _, k := range img.keys {
		if k == holeKey {
			p.holes++
		}
	}
}

// WriteBack retains a dirty page being evicted: its slot count and arrays,
// each with the capacity it was cut with.
func (s *PageStore) WriteBack(p *Page) {
	img := image{slots: int(p.slots)}
	if p.vers != nil {
		img.vers = unsafe.Slice(p.vers, p.capacity())[:p.slots]
	}
	if p.keys != nil {
		img.keys = unsafe.Slice(p.keys, p.capacity())[:p.slots]
	}
	s.images[p.ID] = img
}

// RetainedRowVersionSum is Page.RowVersionSum over the retained image of
// page id; 0 when the store retains none (a page that was never dirtied
// holds only version-0 rows).
func (s *PageStore) RetainedRowVersionSum(id PageID) uint64 {
	var p Page
	p.load(s.images[id])
	return p.RowVersionSum()
}

// ImageCount returns how many dirty-evicted pages are retained.
func (s *PageStore) ImageCount() int { return len(s.images) }
