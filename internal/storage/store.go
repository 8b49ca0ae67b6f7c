package storage

import (
	"fmt"
	"sync"
)

// PageStore is the backing store behind a buffer pool: it resolves a page
// miss either from the images of previously evicted dirty pages or by
// synthesizing the page's initial contents from its table definition.
type PageStore struct {
	tables []*Table // by TableID; nil where none is registered
	images map[PageID][]byte

	// arena carves page buffers out of chunks taken from the process-wide
	// chunk pool: synthesizing a partition touches thousands of pages, and
	// allocating (and zeroing) each 8 KB buffer separately made the
	// allocator, not the simulation, the hot path. chunks remembers every
	// chunk taken, for Release. freeData recycles the buffers of evicted
	// synthesized pages, so a hot page never pins a whole chunk of
	// otherwise-dead neighbors. Buffers are handed out with arbitrary
	// contents; the page's filled bitmap and Page.materialize define every
	// byte before it is read.
	chunks   [][]byte
	arena    []byte
	freeData [][]byte

	Synthesized uint64
	Restored    uint64
}

// arenaChunkPages is how many page buffers one arena chunk holds.
const arenaChunkPages = 64

// chunkPool is the process-wide free list of arena chunks. A sweep builds
// and tears down one deployment per cell, each touching tens of megabytes
// of pages; passing the chunks from one deployment to the next spares every
// cell the page faults and the clearing of fresh memory. It is process-wide
// because cells are built by many goroutines with no common owner, and it
// never shrinks: it holds at most the peak of simultaneously live chunks.
var chunkPool struct {
	sync.Mutex
	free [][]byte
}

func getChunk() []byte {
	chunkPool.Lock()
	if n := len(chunkPool.free) - 1; n >= 0 {
		c := chunkPool.free[n]
		chunkPool.free[n] = nil
		chunkPool.free = chunkPool.free[:n]
		chunkPool.Unlock()
		return c
	}
	chunkPool.Unlock() // allocate (and zero) half a megabyte outside the lock
	return make([]byte, arenaChunkPages*PageSize)
}

func (s *PageStore) newPageData() []byte {
	if n := len(s.freeData) - 1; n >= 0 {
		d := s.freeData[n]
		s.freeData[n] = nil
		s.freeData = s.freeData[:n]
		return d
	}
	if len(s.arena) < PageSize {
		s.arena = getChunk()
		s.chunks = append(s.chunks, s.arena)
	}
	d := s.arena[:PageSize:PageSize]
	s.arena = s.arena[PageSize:]
	return d
}

// Recycle returns an evicted page's buffer to the store, contents and all
// (see PageStore.arena). Only pages whose buffers the store itself handed
// out are reclaimed; restored pages alias the retained image and must not
// be reused.
func (s *PageStore) Recycle(p *Page) {
	if !p.ownsData {
		return
	}
	p.ownsData = false
	s.freeData = append(s.freeData, p.data)
	p.data = nil
}

// Release hands the store's chunks back to the process-wide pool and empties
// the store; any later Fetch panics. The caller guarantees that nothing can
// touch a page of this store again — the next store to take a chunk
// overwrites it.
func (s *PageStore) Release() {
	chunkPool.Lock()
	chunkPool.free = append(chunkPool.free, s.chunks...)
	chunkPool.Unlock()
	*s = PageStore{}
}

// NewPageStore returns an empty store.
func NewPageStore() *PageStore {
	return &PageStore{images: make(map[PageID][]byte)}
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

// Fetch returns the current contents of page id: the retained image of a
// dirty-evicted page, or a page formatted from its table definition whose
// rows are synthesized on first touch.
func (s *PageStore) Fetch(id PageID) *Page {
	p := &Page{ID: id}
	s.fetchInto(p)
	return p
}

// fetchInto is Fetch into a caller-allocated page (the buffer pool reserves
// the frame before the I/O and receives the contents after it).
func (s *PageStore) fetchInto(p *Page) {
	id := p.ID
	if img, ok := s.images[id]; ok {
		s.Restored++
		p.load(img)
		return
	}
	t := s.Table(id.Table)
	if t == nil {
		panic("storage: fetch of page for unknown table")
	}
	if id.No < 0 || id.No >= t.NumPages() {
		panic("storage: fetch of page beyond table end")
	}
	s.Synthesized++
	p.data, p.ownsData = s.newPageData(), true
	p.format(t, id.No)
}

// WriteBack persists the image of a dirty page being evicted.
func (s *PageStore) WriteBack(p *Page) {
	s.images[p.ID] = p.Image()
}

// RetainedRowVersionSum is Page.RowVersionSum over the retained image of
// page id, read in place; 0 when the store retains none (a page that was
// never dirtied holds only version-0 rows).
func (s *PageStore) RetainedRowVersionSum(id PageID) uint64 {
	img, ok := s.images[id]
	if !ok {
		return 0
	}
	return LoadPage(id, img).RowVersionSum()
}

// ImageCount returns how many dirty-evicted page images are retained.
func (s *PageStore) ImageCount() int { return len(s.images) }
