package storage

import (
	"fmt"

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
	// frames[table][no/frameChunkPages][no%frameChunkPages] is the cached
	// page, nil when not resident. A hit is plain indexing: no hashing, no
	// bucket walk, no key compare. The top level is indexed by table id
	// (small and dense in every deployment); chunks are allocated when a
	// page in their range is first cached and then kept, so the directory
	// costs 8 bytes per page of the ranges ever touched (0.1 % of those
	// pages' bytes) however large the table is declared. The per-frame state
	// (pins, ref bit, loading, waiters) lives in the Page itself, so a miss
	// allocates one object and Unfix needs no probe. ring holds exactly the
	// resident pages.
	frames [][]*frameChunk
	ring   []*Page
	hand   int

	bucketLines [bucketLineCount]mem.Line

	Hits, Misses, Evictions, DirtyWriteBacks uint64
}

// frameChunkPages is how many consecutive pages of a table share one
// directory chunk (4 KB of pointers).
const frameChunkPages = 512

type frameChunk [frameChunkPages]*Page

// frameIndex splits a page id into its directory coordinates, rejecting ids
// outside 24 bits of table id and 40 bits of page number (8 PB of pages).
func frameIndex(id PageID) (table, chunk, slot int) {
	if uint64(id.No)>>40 != 0 || uint32(id.Table)>>24 != 0 {
		panic("storage: page id out of range: " + id.String())
	}
	return int(id.Table), int(id.No / frameChunkPages), int(id.No % frameChunkPages)
}

// frame returns the cached page for id, nil when not resident.
func (bp *BufferPool) frame(id PageID) *Page {
	t, c, i := frameIndex(id)
	if t >= len(bp.frames) || c >= len(bp.frames[t]) || bp.frames[t][c] == nil {
		return nil
	}
	return bp.frames[t][c][i]
}

// setFrame enters p for id, growing the directory to reach it; a nil p
// clears the entry of a resident page.
func (bp *BufferPool) setFrame(id PageID, p *Page) {
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
	bp.frames[t][c][i] = p
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

// Capacity returns the pool size in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Resident returns the number of cached pages.
func (bp *BufferPool) Resident() int { return len(bp.ring) }

func (bp *BufferPool) bucketLine(id PageID) *mem.Line {
	h := uint64(id.No)*0x9e3779b97f4a7c15 + uint64(id.Table)*0x85ebca6b
	return &bp.bucketLines[h%bucketLineCount]
}

// Fix pins page id, reading it from the backing store on a miss, and charges
// the caller for the probe, the pin, and any I/O (I/O goes to BIO).
//
// The frame table update is atomic in virtual time (reserve first, charge
// after), so two threads missing on the same page produce one frame: the
// second waits for the first's I/O, as with a real pool's I/O latch.
func (bp *BufferPool) Fix(ctx *exec.Ctx, id PageID) *Page {
	if p := bp.frame(id); p != nil {
		bp.Hits++
		p.pins++
		p.ref = true
		ctx.Charge(CostFixCPU)
		ctx.WriteLine(bp.bucketLine(id))
		if p.loading {
			prev := ctx.Bucket(exec.BIO)
			ctx.Block(func() {
				for p.loading {
					p.waiters = append(p.waiters, ctx.P)
					ctx.P.Park()
				}
			})
			ctx.Bucket(prev)
		}
		return p
	}
	bp.Misses++
	// Reserve the frame before any time passes; the page's contents arrive
	// after the I/O (loading guards them).
	p := &Page{ID: id, pins: 1, ref: true, loading: true}
	bp.setFrame(id, p)
	bp.ring = append(bp.ring, p)
	if len(bp.ring) > bp.capacity {
		bp.evict(ctx)
	}
	ctx.Charge(CostFixCPU)
	ctx.WriteLine(bp.bucketLine(id))
	prev := ctx.Bucket(exec.BIO)
	bp.disk.Read(ctx)
	ctx.Bucket(prev)
	bp.store.fetchInto(p)
	p.loading = false
	for _, w := range p.waiters {
		w.Unpark()
	}
	p.waiters = nil
	return p
}

// Unfix unpins the page; dirty marks it modified.
func (bp *BufferPool) Unfix(ctx *exec.Ctx, p *Page, dirty bool) {
	ctx.Charge(CostUnfixCPU)
	if p.pins <= 0 {
		panic("storage: Unfix of page that is not fixed: " + p.ID.String())
	}
	if dirty {
		p.Dirty = true
	}
	p.pins--
}

// evict selects a clock victim and removes it from the table atomically;
// a dirty victim's image reaches the backing store before any virtual time
// passes, so concurrent re-fetches always observe current contents. The
// device write is charged afterwards.
func (bp *BufferPool) evict(ctx *exec.Ctx) {
	for scanned := 0; scanned < 2*len(bp.ring)+2; scanned++ {
		if len(bp.ring) == 0 {
			break
		}
		bp.hand %= len(bp.ring)
		p := bp.ring[bp.hand]
		if p.pins > 0 || p.loading {
			bp.hand++
			continue
		}
		if p.ref {
			p.ref = false
			bp.hand++
			continue
		}
		// Victim found: unhook, persist image, then pay for the write.
		bp.Evictions++
		bp.setFrame(p.ID, nil)
		bp.ring = append(bp.ring[:bp.hand], bp.ring[bp.hand+1:]...)
		dirty := p.Dirty
		if dirty {
			bp.DirtyWriteBacks++
			bp.store.WriteBack(p)
			p.Dirty = false
		}
		bp.store.Recycle(p)
		if dirty {
			prev := ctx.Bucket(exec.BIO)
			bp.disk.Write(ctx)
			ctx.Bucket(prev)
		}
		return
	}
	panic(fmt.Sprintf("storage: buffer pool thrashing: all %d pages pinned", len(bp.ring)))
}

// Peek returns the cached page for id without pinning, charging, or
// faulting it in; nil when not resident. Diagnostic use only.
func (bp *BufferPool) Peek(id PageID) *Page {
	if p := bp.frame(id); p != nil && !p.loading {
		return p
	}
	return nil
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
			p := bp.store.Fetch(id)
			bp.setFrame(id, p)
			bp.ring = append(bp.ring, p)
			budget--
		}
	}
}

// FlushAll writes back every dirty page (used at orderly shutdown and in
// recovery tests).
func (bp *BufferPool) FlushAll(ctx *exec.Ctx) {
	for _, p := range bp.ring {
		if p.Dirty {
			bp.DirtyWriteBacks++
			prev := ctx.Bucket(exec.BIO)
			bp.disk.Write(ctx)
			ctx.Bucket(prev)
			bp.store.WriteBack(p)
			p.Dirty = false
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
