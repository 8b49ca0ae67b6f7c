package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// refPool is the buffer pool as it was before a page's frame state moved
// into the frame directory: every resident page has a Page struct, made by
// its miss, with its pins, clock bit, loading flag, waiters and header line
// beside it. It is kept, as it was but for a map in place of the directory
// and no reuse of evicted structs, as the reference TestPoolMatchesReference
// and FuzzPoolOps drive side by side with BufferPool.
type refPool struct {
	store       *PageStore
	disk        *Disk
	capacity    int
	frames      map[PageID]*refFrame
	ring        []*refFrame
	hand        int
	bucketLines [bucketLineCount]mem.Line

	Hits, Misses, Evictions, DirtyWriteBacks uint64
}

type refFrame struct {
	p          *Page
	pins       int
	ref        bool
	loading    bool
	headerLine mem.Line
	waiters    []*sim.Proc
}

func newRefPool(store *PageStore, disk *Disk, capacity int) *refPool {
	return &refPool{store: store, disk: disk, capacity: capacity, frames: map[PageID]*refFrame{}}
}

func (bp *refPool) bucketLine(id PageID) *mem.Line {
	h := uint64(id.No)*0x9e3779b97f4a7c15 + uint64(id.Table)*0x85ebca6b
	return &bp.bucketLines[h%bucketLineCount]
}

func (bp *refPool) Fix(ctx *exec.Ctx, id PageID) *refFrame {
	if fr := bp.frames[id]; fr != nil {
		bp.Hits++
		fr.pins++
		fr.ref = true
		ctx.Charge(CostFixCPU)
		ctx.WriteLine(bp.bucketLine(id))
		if fr.loading {
			prev := ctx.Bucket(exec.BIO)
			ctx.Block(func() {
				for fr.loading {
					fr.waiters = append(fr.waiters, ctx.P)
					ctx.P.Park()
				}
			})
			ctx.Bucket(prev)
		}
		return fr
	}
	bp.Misses++
	fr := &refFrame{p: &Page{ID: id}, pins: 1, ref: true, loading: true}
	bp.frames[id] = fr
	bp.ring = append(bp.ring, fr)
	if len(bp.ring) > bp.capacity {
		bp.evict(ctx)
	}
	ctx.Charge(CostFixCPU)
	ctx.WriteLine(bp.bucketLine(id))
	prev := ctx.Bucket(exec.BIO)
	bp.disk.Read(ctx)
	ctx.Bucket(prev)
	bp.fetchInto(fr.p)
	fr.loading = false
	for _, w := range fr.waiters {
		w.Unpark()
	}
	fr.waiters = nil
	return fr
}

// fetchInto is the store's miss as it was: the retained image, else the
// page its table formats.
func (bp *refPool) fetchInto(p *Page) {
	s, id := bp.store, p.ID
	t := s.Table(id.Table)
	p.arena = &s.arena
	if img, ok := s.images[id]; ok {
		s.Restored++
		p.tab, p.firstKey = t, id.No*t.RowsPerPage()
		p.load(img)
		return
	}
	if id.No < 0 || id.No >= t.NumPages() {
		panic("storage: fetch of page beyond table end")
	}
	s.Synthesized++
	p.format(t, id.No)
}

func (bp *refPool) Unfix(ctx *exec.Ctx, fr *refFrame, dirty bool) {
	ctx.Charge(CostUnfixCPU)
	if fr.pins <= 0 {
		panic("storage: Unfix of page that is not fixed: " + fr.p.ID.String())
	}
	if dirty {
		fr.p.Dirty = true
	}
	fr.pins--
}

func (bp *refPool) evict(ctx *exec.Ctx) {
	for scanned := 0; scanned < 2*len(bp.ring)+2; scanned++ {
		if len(bp.ring) == 0 {
			break
		}
		bp.hand %= len(bp.ring)
		fr := bp.ring[bp.hand]
		if fr.pins > 0 || fr.loading {
			bp.hand++
			continue
		}
		if fr.ref {
			fr.ref = false
			bp.hand++
			continue
		}
		bp.Evictions++
		delete(bp.frames, fr.p.ID)
		bp.ring = append(bp.ring[:bp.hand], bp.ring[bp.hand+1:]...)
		if fr.p.Dirty {
			bp.DirtyWriteBacks++
			bp.store.WriteBack(fr.p)
			fr.p.Dirty = false
			prev := ctx.Bucket(exec.BIO)
			bp.disk.Write(ctx)
			ctx.Bucket(prev)
		}
		return
	}
	panic(fmt.Sprintf("storage: buffer pool thrashing: all %d pages pinned", len(bp.ring)))
}

func (bp *refPool) Prewarm(slack int) {
	budget := bp.capacity - slack
	if budget <= 0 {
		return
	}
	for _, t := range bp.store.SortedTables() {
		for no := int64(0); no < t.NumPages() && budget > 0; no++ {
			id := PageID{Table: t.ID, No: no}
			if bp.frames[id] != nil {
				continue
			}
			fr := &refFrame{p: &Page{ID: id}}
			bp.fetchInto(fr.p)
			bp.frames[id] = fr
			bp.ring = append(bp.ring, fr)
			budget--
		}
	}
}

// FlushAll persists every dirty page before it charges the writes, as
// BufferPool.FlushAll does since it stopped writing back a struct that an
// eviction during an earlier page's write had handed to another page.
func (bp *refPool) FlushAll(ctx *exec.Ctx) {
	writes := 0
	for _, fr := range bp.ring {
		if fr.p.Dirty {
			bp.DirtyWriteBacks++
			bp.store.WriteBack(fr.p)
			fr.p.Dirty = false
			writes++
		}
	}
	prev := ctx.Bucket(exec.BIO)
	for ; writes > 0; writes-- {
		bp.disk.Write(ctx)
	}
	ctx.Bucket(prev)
}

// poolUnderTest is what a pool script does to a pool: the engine's row
// accesses, long-held pins, a flush, and what it reads back at the end.
type poolUnderTest interface {
	prewarm(slack int)
	read(ctx *exec.Ctx, t *Table, rid RID) (key int64, ok bool) // unlatched
	readLatched(ctx *exec.Ctx, rid RID) (key int64, v uint64, ok bool)
	write(ctx *exec.Ctx, rid RID) bool
	insert(ctx *exec.Ctx, t *Table, key int64) (slot uint16, ok bool)
	delete(ctx *exec.Ctx, rid RID) bool
	hold(ctx *exec.Ctx, id PageID, entry bool) (release func())
	flush(ctx *exec.Ctx)
	counters() [4]uint64
	page(id PageID) *Page // the resident page as a struct, nil when not resident
}

// newPool is BufferPool as a poolUnderTest; cov, when set, counts the
// paths the script took.
type newPool struct {
	*BufferPool
	cov *poolCoverage
}

type poolCoverage struct {
	waited, late, grown, restored uint64
}

// note counts, before a fix of id, a thread about to queue behind a miss
// and a struct about to be made for a resident page (late, and grown when
// the fix is an insert's).
func (bp newPool) note(id PageID, insert bool) {
	f := bp.frame(id)
	switch {
	case bp.cov == nil || f == nil:
	case f.state&frameLoading != 0:
		bp.cov.waited++
	case f.page == nil && insert:
		bp.cov.grown++
		fallthrough
	case f.page == nil:
		bp.cov.late++
	}
}

func (bp newPool) prewarm(slack int) { bp.Prewarm(slack) }

func (bp newPool) read(ctx *exec.Ctx, t *Table, rid RID) (int64, bool) {
	bp.note(rid.Page, false)
	f := bp.FixFrame(ctx, rid.Page)
	ctx.ReadLine(&f.Line)
	key, ok := f.Key(t, rid)
	bp.UnfixFrame(ctx, f)
	return key, ok
}

func (bp newPool) readLatched(ctx *exec.Ctx, rid RID) (int64, uint64, bool) {
	bp.note(rid.Page, false)
	p := bp.Fix(ctx, rid.Page)
	p.Latch.AcquireShared(ctx)
	ctx.ReadLine(p.HeaderLine())
	key, ok := p.Key(rid.Slot)
	v, _ := p.Version(rid.Slot)
	p.Latch.ReleaseShared(ctx)
	bp.Unfix(ctx, p, false)
	return key, v, ok
}

func (bp newPool) write(ctx *exec.Ctx, rid RID) bool {
	bp.note(rid.Page, false)
	p := bp.Fix(ctx, rid.Page)
	p.Latch.AcquireExclusive(ctx)
	ctx.WriteLine(p.HeaderLine())
	v, ok := p.Version(rid.Slot)
	if ok {
		p.SetVersion(rid.Slot, v+1)
	}
	p.Latch.ReleaseExclusive(ctx)
	bp.Unfix(ctx, p, ok)
	return ok
}

func (bp newPool) insert(ctx *exec.Ctx, t *Table, key int64) (uint16, bool) {
	rid := t.Locate(key)
	bp.note(rid.Page, true)
	p := bp.Fix(ctx, rid.Page)
	ctx.WriteLine(p.HeaderLine())
	slot, ok := rid.Slot, true
	if got, live := p.Key(rid.Slot); !live || got != key {
		slot, ok = p.Insert(key)
	}
	bp.Unfix(ctx, p, true)
	return slot, ok
}

func (bp newPool) delete(ctx *exec.Ctx, rid RID) bool {
	bp.note(rid.Page, false)
	p := bp.Fix(ctx, rid.Page)
	ctx.WriteLine(p.HeaderLine())
	ok := p.Delete(rid.Slot)
	bp.Unfix(ctx, p, ok)
	return ok
}

func (bp newPool) hold(ctx *exec.Ctx, id PageID, entry bool) func() {
	bp.note(id, false)
	if entry {
		f := bp.FixFrame(ctx, id)
		return func() { bp.UnfixFrame(ctx, f) }
	}
	p := bp.Fix(ctx, id)
	return func() { bp.Unfix(ctx, p, false) }
}

func (bp newPool) flush(ctx *exec.Ctx) { bp.FlushAll(ctx) }

func (bp newPool) counters() [4]uint64 {
	return [4]uint64{bp.Hits, bp.Misses, bp.Evictions, bp.DirtyWriteBacks}
}

// page reads a resident page without making its struct: one without is
// shown as the struct the pool would make for it, outside the pool.
func (bp newPool) page(id PageID) *Page {
	f := bp.frame(id)
	switch {
	case f == nil:
		return nil
	case f.page != nil:
		return f.page
	}
	p := &Page{ID: id}
	p.init(bp.store, image{slots: int(f.state & frameSlotMask)})
	return p
}

// oldPool is refPool as a poolUnderTest.
type oldPool struct{ *refPool }

func (bp oldPool) prewarm(slack int) { bp.Prewarm(slack) }

func (bp oldPool) read(ctx *exec.Ctx, _ *Table, rid RID) (int64, bool) {
	fr := bp.Fix(ctx, rid.Page)
	ctx.ReadLine(&fr.headerLine)
	key, ok := fr.p.Key(rid.Slot)
	bp.Unfix(ctx, fr, false)
	return key, ok
}

func (bp oldPool) readLatched(ctx *exec.Ctx, rid RID) (int64, uint64, bool) {
	fr := bp.Fix(ctx, rid.Page)
	fr.p.Latch.AcquireShared(ctx)
	ctx.ReadLine(&fr.headerLine)
	key, ok := fr.p.Key(rid.Slot)
	v, _ := fr.p.Version(rid.Slot)
	fr.p.Latch.ReleaseShared(ctx)
	bp.Unfix(ctx, fr, false)
	return key, v, ok
}

func (bp oldPool) write(ctx *exec.Ctx, rid RID) bool {
	fr := bp.Fix(ctx, rid.Page)
	fr.p.Latch.AcquireExclusive(ctx)
	ctx.WriteLine(&fr.headerLine)
	v, ok := fr.p.Version(rid.Slot)
	if ok {
		fr.p.SetVersion(rid.Slot, v+1)
	}
	fr.p.Latch.ReleaseExclusive(ctx)
	bp.Unfix(ctx, fr, ok)
	return ok
}

func (bp oldPool) insert(ctx *exec.Ctx, t *Table, key int64) (uint16, bool) {
	rid := t.Locate(key)
	fr := bp.Fix(ctx, rid.Page)
	ctx.WriteLine(&fr.headerLine)
	slot, ok := rid.Slot, true
	if got, live := fr.p.Key(rid.Slot); !live || got != key {
		slot, ok = fr.p.Insert(key)
	}
	bp.Unfix(ctx, fr, true)
	return slot, ok
}

func (bp oldPool) delete(ctx *exec.Ctx, rid RID) bool {
	fr := bp.Fix(ctx, rid.Page)
	ctx.WriteLine(&fr.headerLine)
	ok := fr.p.Delete(rid.Slot)
	bp.Unfix(ctx, fr, ok)
	return ok
}

func (bp oldPool) hold(ctx *exec.Ctx, id PageID, _ bool) func() {
	fr := bp.Fix(ctx, id)
	return func() { bp.Unfix(ctx, fr, false) }
}

func (bp oldPool) flush(ctx *exec.Ctx) { bp.FlushAll(ctx) }

func (bp oldPool) counters() [4]uint64 {
	return [4]uint64{bp.Hits, bp.Misses, bp.Evictions, bp.DirtyWriteBacks}
}

func (bp oldPool) page(id PageID) *Page {
	if fr := bp.frames[id]; fr != nil {
		return fr.p
	}
	return nil
}

// Pool script operations. A script is a header (capacity, prewarm, table
// shape) and operations that two threads, on cores of different sockets,
// take in turn from one queue: whichever is free takes the next, so a
// thread blocked in a miss's I/O lets the other run ahead — onto the same
// page, when the script asks for a concurrent miss.
const (
	poolRead        = iota // unlatched read of (page, slot): FixFrame and Frame.Key
	poolReadLatched        // Fix, shared latch, Key and Version
	poolWrite              // Fix, exclusive latch, version bump
	poolInsert             // the engine's insert: claim key NumRows, then fix its page
	poolDelete             // Fix and Delete (page, slot)
	poolHoldEntry          // FixFrame (page) and keep it pinned
	poolHoldStruct         // Fix (page) and keep it pinned
	poolRelease            // unpin this thread's oldest held page
	poolTwoMisses          // an unlatched and a latched read of one page, back to back
	poolLastInsert         // an unlatched read of the table's last row or past it, then an insert
	poolFlush              // FlushAll
	poolOpKinds
	poolReadLast = poolOpKinds // the first half of poolLastInsert
)

type poolOp struct {
	kind       int
	page, slot int64
}

type poolScript struct {
	capacity int
	prewarm  int // slack, or -1 for a cold pool
	rowBytes int
	pages    int64
	short    int64 // rows the last page lacks
	ops      []poolOp
}

// parsePoolScript reads a script from bytes: four header bytes, then three
// bytes per operation. A poolTwoMisses or poolLastInsert operation becomes
// two queue entries.
func parsePoolScript(b []byte) (poolScript, bool) {
	if len(b) < 4 {
		return poolScript{}, false
	}
	s := poolScript{
		capacity: 4 + int(b[0]%5),
		prewarm:  int(b[1]%4) - 1,
		rowBytes: []int{250, 96, 1000, 16}[b[2]%4],
		pages:    6 + int64(b[3]%24),
		short:    int64(b[3] / 24 % 7),
	}
	for b = b[4:]; len(b) >= 3; b = b[3:] {
		op := poolOp{kind: int(b[0]) % poolOpKinds, page: int64(b[1]), slot: int64(b[2])}
		switch op.kind {
		case poolTwoMisses:
			s.ops = append(s.ops, poolOp{poolRead, op.page, op.slot}, poolOp{poolReadLatched, op.page, op.slot + 1})
		case poolLastInsert:
			s.ops = append(s.ops, poolOp{poolReadLast, 0, op.slot}, poolOp{kind: poolInsert})
		default:
			s.ops = append(s.ops, op)
		}
	}
	return s, true
}

// randomPoolScript draws a script's bytes.
func randomPoolScript(rng *rand.Rand, ops int) []byte {
	b := make([]byte, 4+3*ops)
	rng.Read(b)
	return b
}

// poolRun is what one pool did with a script: a line per operation (its
// thread, its virtual time when done, its result), the per-core memory
// statistics, the pool's and the store's counters, and every page's rows.
type poolRun struct {
	log      []string
	stats    []mem.Stats
	counters [4]uint64
	synth    [2]uint64
	rows     []string
}

// runPoolScript drives s through the pool mk builds over a fresh store, on
// machine m.
func runPoolScript(m *topology.Machine, s poolScript, mk func(*PageStore, *Disk, int) poolUnderTest) poolRun {
	tab := &Table{ID: 1, Name: "rows", RowBytes: s.rowBytes}
	tab.NumRows = s.pages*tab.RowsPerPage() - min(s.short, tab.RowsPerPage()-1)
	store := NewPageStore()
	store.AddTable(tab)
	pool := mk(store, MMapDisk(), s.capacity)
	if s.prewarm >= 0 {
		pool.prewarm(s.prewarm)
	}
	model := mem.NewModel(m)
	k := sim.NewKernel()
	defer k.Close()
	var run poolRun
	next, held := 0, 0
	cores := []topology.CoreID{0, topology.CoreID(m.NumCores() - 1)}
	for w, core := range cores {
		k.Spawn(fmt.Sprint("pool", w), func(p *sim.Proc) {
			ctx := exec.New(p, core, model, nil)
			ctx.BD = &exec.Breakdown{}
			var holds []func()
			for next < len(s.ops) {
				i, op := next, s.ops[next]
				next++
				id := PageID{Table: tab.ID, No: op.page % tab.NumPages()}
				rid := RID{Page: id, Slot: uint16(op.slot % (tab.RowsPerPage() + 1))}
				var res any
				switch op.kind {
				case poolRead:
					k, ok := pool.read(ctx, tab, rid)
					res = [2]any{k, ok}
				case poolReadLast:
					// The last row, or a slot past it on a short last page.
					rid = tab.Locate(tab.NumRows - 1)
					if past := tab.Locate(tab.NumRows - 1 + op.slot%3); past.Page == rid.Page {
						rid = past
					}
					k, ok := pool.read(ctx, tab, rid)
					res = [2]any{k, ok}
				case poolReadLatched:
					k, v, ok := pool.readLatched(ctx, rid)
					res = [3]any{k, v, ok}
				case poolWrite:
					res = pool.write(ctx, rid)
				case poolInsert:
					key := tab.NumRows
					tab.NumRows++
					slot, ok := pool.insert(ctx, tab, key)
					res = [3]any{key, slot, ok}
				case poolDelete:
					res = pool.delete(ctx, rid)
				case poolHoldEntry, poolHoldStruct:
					// Two threads each fix one page at a time; the held
					// ones leave a full pool a victim.
					if held < s.capacity-2 {
						held++ // before the fix, which may block in a miss
						holds = append(holds, pool.hold(ctx, id, op.kind == poolHoldEntry))
					}
				case poolRelease:
					if len(holds) > 0 {
						holds[0]()
						holds = holds[1:]
						held--
					}
				case poolFlush:
					pool.flush(ctx)
				}
				run.log = append(run.log, fmt.Sprintf("op %d (%d) on %d: %v at %d", i, op.kind, w, res, p.Now()))
			}
			for _, release := range holds {
				release()
			}
			held -= len(holds)
		})
	}
	k.Run()
	if np, ok := pool.(newPool); ok && np.cov != nil {
		np.cov.restored += store.Restored
	}
	run.stats = model.PerCore
	run.counters = pool.counters()
	run.synth = [2]uint64{store.Synthesized, store.Restored}
	for no := int64(0); no < tab.NumPages(); no++ {
		id := PageID{Table: tab.ID, No: no}
		p := pool.page(id)
		where := "resident"
		if p == nil {
			where = "stored"
			p = &Page{ID: id}
			img, retained := store.images[id]
			if !retained {
				lo, hi := tab.KeyRangeOfPage(no)
				img = image{slots: int(hi - lo)}
			}
			p.init(store, img)
		}
		run.rows = append(run.rows, fmt.Sprintf("%v %s dirty=%v: %s", id, where, p.Dirty, pageRows(p)))
	}
	return run
}

// pageRows lists every slot's key, version and liveness, and one slot past
// the last.
func pageRows(p *Page) string {
	var out []byte
	for s := 0; s <= p.NumSlots(); s++ {
		k, ok := p.Key(uint16(s))
		v, _ := p.Version(uint16(s))
		out = fmt.Appendf(out, "%d:%d/%d/%v ", s, k, v, ok)
	}
	return fmt.Sprintf("%s free=%d", out, p.FreeSpace())
}

// comparePools runs script b on both pools, on two machines, and reports
// the first difference.
func comparePools(b []byte) error {
	s, ok := parsePoolScript(b)
	if !ok {
		return nil
	}
	for _, m := range []*topology.Machine{topology.QuadSocket(), topology.OctoSocket()} {
		got := runPoolScript(m, s, func(st *PageStore, d *Disk, c int) poolUnderTest { return newPool{NewBufferPool(st, d, c), nil} })
		want := runPoolScript(m, s, func(st *PageStore, d *Disk, c int) poolUnderTest { return oldPool{newRefPool(st, d, c)} })
		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				return fmt.Errorf("%s: step %d: %s, reference %s", m.Name, i, got.log[i], want.log[i])
			}
		}
		switch {
		case len(got.log) != len(want.log):
			return fmt.Errorf("%s: %d steps, reference %d", m.Name, len(got.log), len(want.log))
		case !reflect.DeepEqual(got.stats, want.stats):
			return fmt.Errorf("%s: per-core memory statistics differ:\n%+v\nreference\n%+v", m.Name, got.stats, want.stats)
		case got.counters != want.counters:
			return fmt.Errorf("%s: hits/misses/evictions/write-backs %v, reference %v", m.Name, got.counters, want.counters)
		case got.synth != want.synth:
			return fmt.Errorf("%s: synthesized/restored %v, reference %v", m.Name, got.synth, want.synth)
		case !reflect.DeepEqual(got.rows, want.rows):
			for i := range got.rows {
				if got.rows[i] != want.rows[i] {
					return fmt.Errorf("%s: %s\nreference\n%s", m.Name, got.rows[i], want.rows[i])
				}
			}
			return fmt.Errorf("%s: %d pages, reference %d", m.Name, len(got.rows), len(want.rows))
		}
	}
	return nil
}

// TestPoolMatchesReference drives random scripts through BufferPool and the
// struct-per-page refPool: equal virtual time and result at every step,
// equal per-core memory statistics, pool and store counters, and every
// page's keys, versions and liveness at the end.
func TestPoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		b := randomPoolScript(rng, 20+rng.Intn(200))
		if err := comparePools(b); err != nil {
			t.Fatalf("script %d %v: %v", i, b, err)
		}
	}
}

// TestPoolScriptsReachEveryPath: the random scripts of
// TestPoolMatchesReference queue a thread behind another's miss, make
// structs for resident pages that had none, insert into a last page that
// was resident without a struct, and evict dirty pages and restore them.
func TestPoolScriptsReachEveryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var cov poolCoverage
	for i := 0; i < 60; i++ {
		s, _ := parsePoolScript(randomPoolScript(rng, 20+rng.Intn(200)))
		runPoolScript(topology.QuadSocket(), s, func(st *PageStore, d *Disk, c int) poolUnderTest {
			return newPool{NewBufferPool(st, d, c), &cov}
		})
	}
	if cov.waited == 0 || cov.late == 0 || cov.grown == 0 || cov.restored == 0 {
		t.Errorf("queued behind a miss %d times, structs made for resident pages %d, of them for an insert %d, pages restored %d: want each > 0",
			cov.waited, cov.late, cov.grown, cov.restored)
	}
}

// FuzzPoolOps is TestPoolMatchesReference on arbitrary scripts.
func FuzzPoolOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 30, 8, 2, 3, 9, 0, 0, 2, 5, 1, 4, 5, 2, 5, 7, 0, 3, 3, 1, 2, 1}) // concurrent miss, last-page insert, held pins
	f.Add([]byte{1, 2, 1, 200, 2, 0, 1, 2, 9, 4, 2, 17, 3, 6, 3, 0, 0, 0, 1, 2, 10, 0, 0}) // dirty evictions and reloads on a warm pool
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(randomPoolScript(rng, 60))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4+3*400 {
			return
		}
		if err := comparePools(script); err != nil {
			t.Fatal(err)
		}
	})
}
