package storage

import (
	"fmt"
	"sync"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
)

// Buffer pool cost constants.
const (
	// CostFixCPU is the compute cost of a hash-table probe plus pin.
	CostFixCPU = 110 * sim.Nanosecond
	// CostUnfixCPU is the compute cost of an unpin.
	CostUnfixCPU = 30 * sim.Nanosecond

	bucketLineCount = 64
)

// BufferPool caches pages of a PageStore with clock (second-chance)
// eviction. Its hash-bucket metadata is coherence-tracked, so instances
// whose workers span sockets pay growing costs for buffer-pool bookkeeping —
// one of the shared-everything penalties measured in the paper.
type BufferPool struct {
	store    *PageStore
	disk     *Disk
	capacity int

	// frames is the frame directory, direct-mapped in two levels:
	// frames[table][no/frameChunkPages][no%frameChunkPages] is the page's
	// Frame, resident or not. A hit is plain indexing: no hashing, no bucket
	// walk, no key compare. The top level is indexed by table id (small and
	// dense in every deployment); chunks are allocated when a page in their
	// range is first cached and then kept, so the directory costs a 24-byte
	// Frame per page of the ranges ever touched however large the table is
	// declared. ring holds exactly the resident frames, in clock order.
	frames [][]*frameChunk
	ring   []*Frame
	hand   int

	// waiters are the threads waiting for a frame to finish loading, in the
	// order they queued: concurrent misses on one page are rare, so the
	// pool keeps one list rather than a list per page.
	waiters []frameWaiter

	// free holds the zeroed structs of evicted pages, slab the unused rest
	// of the last slab of pageSlab structs taken and slabs every slab taken
	// (see frameSlabs). A page takes its struct from free first, so the
	// pool holds at most its high-water mark of structs and, once warm, a
	// miss allocates nothing.
	free  []*Page
	slab  []Page
	slabs [][]Page

	bucketLines [bucketLineCount]mem.Line

	Hits, Misses, Evictions, DirtyWriteBacks uint64
}

// Frame is a page's entry in its pool's frame directory: the frame state
// (pins, clock bit, loading), the coherence line of the page's header and,
// beside the pointer to the page's Page struct, the slot count the page was
// loaded with. A page nobody has written needs nothing more: its slot i
// holds key No*RowsPerPage+i at version 0, live below that count. So a
// miss makes a struct only when the store retains an image of the page,
// and a resident page gets one at the first fix that needs it — a write, an
// Insert or Delete, a latched read (the latch lives in the struct), redo —
// made exactly as the load would have made it, and keeps it until it is
// evicted. A non-latched read of an unwritten page (FixFrame, Frame.Key)
// touches only its 24-byte entry, where the struct is 128 bytes.
type Frame struct {
	page *Page
	// Line is the coherence-tracked proxy for the page's hot metadata
	// (header word, latch word): every fix or latch of the page touches it,
	// so cross-core sharing of pages shows up in the memory model. It lives
	// here, not in the struct, so it never moves when a struct is made.
	Line  mem.Line
	pins  uint16
	state uint16 // the slot count at load, below frameSlotMask, and the flags
}

// Frame.state's flags, above the slot count: a page holds at most
// (PageSize-pageHeaderSize)/slotSize = 2,044 slots, which fit 11 bits.
const (
	frameSlotMask = 1<<11 - 1
	frameResident = 1 << 11
	frameRef      = 1 << 12 // the clock's second-chance bit
	frameLoading  = 1 << 13 // the miss's I/O is in flight; contents not yet set
)

type frameWaiter struct {
	f *Frame
	p *sim.Proc
}

// Key returns the key of the row at rid.Slot of the page rid.Page of t that
// f is the frame of; ok is false for out-of-range or deleted slots. A page
// without a struct answers from its load-time slot count and t's
// arithmetic.
func (f *Frame) Key(t *Table, rid RID) (key int64, ok bool) {
	if f.page != nil {
		return f.page.Key(rid.Slot)
	}
	if int(rid.Slot) >= int(f.state&frameSlotMask) {
		return 0, false
	}
	return rid.Page.No*t.RowsPerPage() + int64(rid.Slot), true
}

// frameChunkPages is how many consecutive pages of a table share one
// directory chunk (12 KB of frames).
const frameChunkPages = 512

type frameChunk [frameChunkPages]Frame

// pageSlab is how many Page structs the pool allocates at a time. 256 of
// them are 32 KB, four of the runtime's 8 KB pages and past what it serves
// from a small-object size class once a pointerful object's 8-byte
// allocation header (Go 1.22 on) is added, so a slab is a page-aligned
// allocation of its own and every 128-byte struct in it starts on a
// cache-line boundary. A smaller slab would get that header in front of its
// first struct, which would shift every struct's leading cache line
// (TestPageHitPathLeadsTheStruct).
const pageSlab = 256

// newPage returns a zero Page struct for id, reusing an evicted one when
// there is one.
func (bp *BufferPool) newPage(id PageID) *Page {
	var p *Page
	if n := len(bp.free) - 1; n >= 0 {
		p = bp.free[n]
		bp.free[n] = nil
		bp.free = bp.free[:n]
	} else {
		if len(bp.slab) == 0 {
			bp.slab = takeSlab()
			bp.slabs = append(bp.slabs, bp.slab)
		}
		p = &bp.slab[0]
		bp.slab = bp.slab[1:]
	}
	p.ID = id
	return p
}

// frameIndex splits a page id into its directory coordinates, rejecting ids
// outside 24 bits of table id and 40 bits of page number (8 PB of pages).
func frameIndex(id PageID) (table, chunk, slot int) {
	if uint64(id.No)>>40 != 0 || uint32(id.Table)>>24 != 0 {
		panic("storage: page id out of range: " + id.String())
	}
	return int(id.Table), int(id.No / frameChunkPages), int(id.No % frameChunkPages)
}

// frameSlabs is the process-wide free list of zeroed Page-struct slabs. A
// sweep builds and tears down a deployment per cell, and each caches a
// Page struct per written page it touches: much of what a cold cell
// allocates. Handing the slabs from one deployment's pools to the next
// spares that, and keeps the garbage collector's goal above what a cell
// allocates; without it a cold study_sweep_store repetition collected about
// six times instead of once. It holds at most the peak of simultaneously
// cached structs.
var frameSlabs struct {
	sync.Mutex
	free [][]Page
}

func takeSlab() []Page {
	frameSlabs.Lock()
	defer frameSlabs.Unlock()
	if n := len(frameSlabs.free) - 1; n >= 0 {
		s := frameSlabs.free[n]
		frameSlabs.free[n] = nil
		frameSlabs.free = frameSlabs.free[:n]
		return s
	}
	return make([]Page, pageSlab)
}

// Close zeroes the pool's Page structs and hands their slabs to the next
// pool that needs one, and empties the pool: a later Fix panics. The caller
// guarantees that nothing touches a page of the pool again
// (core.Deployment.Close kills every thread first). Closing twice is
// harmless.
func (bp *BufferPool) Close() {
	for _, s := range bp.slabs {
		clear(s)
	}
	frameSlabs.Lock()
	frameSlabs.free = append(frameSlabs.free, bp.slabs...)
	frameSlabs.Unlock()
	*bp = BufferPool{}
}

// frame returns the frame of id, nil when the page is not resident.
func (bp *BufferPool) frame(id PageID) *Frame {
	t, c, i := frameIndex(id)
	if t >= len(bp.frames) || c >= len(bp.frames[t]) || bp.frames[t][c] == nil {
		return nil
	}
	if f := &bp.frames[t][c][i]; f.state&frameResident != 0 {
		return f
	}
	return nil
}

// entry returns the frame of id, growing the directory to reach it.
func (bp *BufferPool) entry(id PageID) *Frame {
	t, c, i := frameIndex(id)
	for t >= len(bp.frames) {
		bp.frames = append(bp.frames, nil)
	}
	for c >= len(bp.frames[t]) {
		bp.frames[t] = append(bp.frames[t], nil)
	}
	if bp.frames[t][c] == nil {
		bp.frames[t][c] = new(frameChunk)
	}
	return &bp.frames[t][c][i]
}

// load gives the reserved frame f of page id its contents as the store
// resolves them: a struct holding the retained image of a dirty-evicted
// page, else the slot count the page's table formats it with, and no struct.
func (bp *BufferPool) load(f *Frame, id PageID) {
	if img, retained := bp.store.resolve(id); retained {
		bp.attach(f, id, img)
	} else {
		f.state |= uint16(img.slots)
	}
}

// pageOf returns the Page struct of the resident frame f of page id, making
// it, as the load would have, if the page has none.
func (bp *BufferPool) pageOf(f *Frame, id PageID) *Page {
	if f.page == nil {
		bp.attach(f, id, image{slots: int(f.state & frameSlotMask)})
	}
	return f.page
}

// attach gives frame f of page id a struct holding img.
func (bp *BufferPool) attach(f *Frame, id PageID, img image) {
	p := bp.newPage(id)
	p.frame = f
	p.init(bp.store, img)
	f.page = p
}

// NewBufferPool builds a pool of `capacity` pages over store, performing
// misses and write-backs against disk.
func NewBufferPool(store *PageStore, disk *Disk, capacity int) *BufferPool {
	if capacity < 1 {
		panic("storage: buffer pool capacity must be >= 1")
	}
	return &BufferPool{
		store:    store,
		disk:     disk,
		capacity: capacity,
	}
}

// Resident returns the number of cached pages.
func (bp *BufferPool) Resident() int { return len(bp.ring) }

func (bp *BufferPool) bucketLine(id PageID) *mem.Line {
	h := uint64(id.No)*0x9e3779b97f4a7c15 + uint64(id.Table)*0x85ebca6b
	return &bp.bucketLines[h%bucketLineCount]
}

// Fix pins page id, reading it from the backing store on a miss, and charges
// the caller for the probe, the pin, and any I/O (I/O goes to BIO). It
// returns the page's Page struct, making it if the page has none: the fix
// of a write, an Insert or Delete, or a latched read.
func (bp *BufferPool) Fix(ctx *exec.Ctx, id PageID) *Page {
	return bp.pageOf(bp.FixFrame(ctx, id), id)
}

// FixFrame is Fix without the Page struct: it returns the page's frame and
// makes no struct the page does not already have — the fix of a read that
// takes no latch (Frame.Key answers it). Release it with UnfixFrame.
//
// The frame table update is atomic in virtual time (reserve first, charge
// after), so two threads missing on the same page produce one frame: the
// second waits for the first's I/O, as with a real pool's I/O latch.
func (bp *BufferPool) FixFrame(ctx *exec.Ctx, id PageID) *Frame {
	if f := bp.frame(id); f != nil {
		bp.Hits++
		f.pins++
		f.state |= frameRef
		ctx.Charge(CostFixCPU)
		ctx.WriteLine(bp.bucketLine(id))
		if f.state&frameLoading != 0 {
			prev := ctx.Bucket(exec.BIO)
			ctx.Block(func() {
				for f.state&frameLoading != 0 {
					bp.waiters = append(bp.waiters, frameWaiter{f, ctx.P})
					ctx.P.Park()
				}
			})
			ctx.Bucket(prev)
		}
		return f
	}
	bp.Misses++
	// Reserve the frame before any time passes; the page's contents arrive
	// after the I/O (loading guards them).
	f := bp.entry(id)
	f.pins, f.state = 1, frameResident|frameRef|frameLoading
	bp.ring = append(bp.ring, f)
	if len(bp.ring) > bp.capacity {
		bp.evict(ctx)
	}
	ctx.Charge(CostFixCPU)
	ctx.WriteLine(bp.bucketLine(id))
	prev := ctx.Bucket(exec.BIO)
	bp.disk.Read(ctx)
	ctx.Bucket(prev)
	bp.load(f, id)
	f.state &^= frameLoading
	if len(bp.waiters) > 0 {
		bp.wake(f)
	}
	return f
}

// wake unparks, in the order they queued, the threads waiting for f to load.
func (bp *BufferPool) wake(f *Frame) {
	kept := bp.waiters[:0]
	for _, w := range bp.waiters {
		if w.f == f {
			w.p.Unpark()
		} else {
			kept = append(kept, w)
		}
	}
	clear(bp.waiters[len(kept):])
	bp.waiters = kept
}

// Unfix unpins the page; dirty marks it modified.
func (bp *BufferPool) Unfix(ctx *exec.Ctx, p *Page, dirty bool) {
	ctx.Charge(CostUnfixCPU)
	if p.frame == nil || p.frame.pins == 0 {
		panic("storage: Unfix of page that is not fixed: " + p.ID.String())
	}
	if dirty {
		p.Dirty = true
	}
	p.frame.pins--
}

// UnfixFrame unpins a page fixed by FixFrame, unmodified.
func (bp *BufferPool) UnfixFrame(ctx *exec.Ctx, f *Frame) {
	ctx.Charge(CostUnfixCPU)
	if f.pins == 0 {
		panic("storage: UnfixFrame of a frame that is not fixed")
	}
	f.pins--
}

// evict selects a clock victim and removes it from the table atomically;
// a dirty victim's arrays reach the backing store before any virtual time
// passes, so concurrent re-fetches always observe current contents. The
// device write is charged afterwards.
func (bp *BufferPool) evict(ctx *exec.Ctx) {
	for scanned := 0; scanned < 2*len(bp.ring)+2; scanned++ {
		if len(bp.ring) == 0 {
			break
		}
		bp.hand %= len(bp.ring)
		f := bp.ring[bp.hand]
		if f.pins > 0 || f.state&frameLoading != 0 {
			bp.hand++
			continue
		}
		if f.state&frameRef != 0 {
			f.state &^= frameRef
			bp.hand++
			continue
		}
		// Victim found: unhook, persist image, then pay for the write.
		bp.Evictions++
		bp.ring = append(bp.ring[:bp.hand], bp.ring[bp.hand+1:]...)
		p := f.page
		*f = Frame{}
		dirty := p != nil && p.Dirty
		if dirty {
			bp.DirtyWriteBacks++
			bp.store.WriteBack(p)
		}
		if p != nil {
			// Nothing holds an unpinned page, so its struct can serve the
			// next miss. (Instance.Restore drops a crashed pool, free list
			// and all: threads of the dead epoch may still hold its pages.)
			*p = Page{}
			bp.free = append(bp.free, p)
		}
		if dirty {
			prev := ctx.Bucket(exec.BIO)
			bp.disk.Write(ctx)
			ctx.Bucket(prev)
		}
		return
	}
	panic(fmt.Sprintf("storage: buffer pool thrashing: all %d pages pinned", len(bp.ring)))
}

// Peek returns the Page struct of the resident page id without pinning,
// charging, or faulting it in, making the struct if the page has none; nil
// when not resident. For redo, which writes the resident page in place, and
// diagnostics.
func (bp *BufferPool) Peek(id PageID) *Page {
	if f := bp.frame(id); f != nil && f.state&frameLoading == 0 {
		return bp.pageOf(f, id)
	}
	return nil
}

// RowVersionSum is Page.RowVersionSum over the resident page id, without
// making its struct: a page without one was never written, so its sum is 0.
// resident is false, and sum 0, when the page is not resident.
func (bp *BufferPool) RowVersionSum(id PageID) (sum uint64, resident bool) {
	f := bp.frame(id)
	if f == nil || f.state&frameLoading != 0 {
		return 0, false
	}
	if f.page != nil {
		sum = f.page.RowVersionSum()
	}
	return sum, true
}

// PageStructs returns how many resident pages have a Page struct.
func (bp *BufferPool) PageStructs() int {
	n := 0
	for _, f := range bp.ring {
		if f.page != nil {
			n++
		}
	}
	return n
}

// Prewarm fills the pool with the lowest-numbered pages of each table, up
// to the pool capacity minus slack, without charging I/O: the standard
// warm-start for steady-state measurements (the paper measures warmed
// systems).
func (bp *BufferPool) Prewarm(slack int) {
	budget := bp.capacity - slack
	if budget <= 0 {
		return
	}
	for _, t := range bp.store.SortedTables() {
		for no := int64(0); no < t.NumPages() && budget > 0; no++ {
			id := PageID{Table: t.ID, No: no}
			if bp.frame(id) != nil {
				continue
			}
			f := bp.entry(id)
			f.state = frameResident
			bp.load(f, id)
			bp.ring = append(bp.ring, f)
			budget--
		}
	}
}

// HitRate returns hits / (hits+misses), or 1 when unused.
func (bp *BufferPool) HitRate() float64 {
	total := bp.Hits + bp.Misses
	if total == 0 {
		return 1
	}
	return float64(bp.Hits) / float64(total)
}
