package storage

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

// The tests in this file pin the invariant behind dense leaves: a tree built
// by BulkLoadRange is, to every caller and to the simulated machine, the tree
// BulkLoad builds over the same keys. They drive both through one script and
// compare after every step.

// treeUnderTest is one tree with its own memory model and two contexts on
// cores of different sockets; ops alternate between them, so which node an
// op visits, and in which order, shows in the coherence statistics.
type treeUnderTest struct {
	bt    *BTree
	model *mem.Model
	ctx   [2]*exec.Ctx
}

func newTreeUnderTest(p *sim.Proc, order int) *treeUnderTest {
	topo := topology.QuadSocket()
	u := &treeUnderTest{bt: NewBTree(order), model: mem.NewModel(topo)}
	for i, core := range []topology.CoreID{0, topology.CoreID(topo.NumCores() - 1)} {
		u.ctx[i] = exec.New(p, core, u.model, nil)
		u.ctx[i].BD = &exec.Breakdown{}
	}
	return u
}

// denseLeaves counts the leaves still in dense form.
func (t *BTree) denseLeaves() int {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	dense := 0
	for ; n != nil; n = n.next {
		if n.dense() {
			dense++
		}
	}
	return dense
}

type rangeHit struct {
	key int64
	rid RID
}

// runBTreeScript interprets script as a tree geometry followed by operations
// and applies every operation to a BulkLoadRange-built tree and to a
// BulkLoad-built reference, failing on the first difference in results,
// Size, Height, virtual time charged, memory statistics or invariants. It
// returns the range-loaded tree as the script left it.
func runBTreeScript(t testing.TB, script []byte) *BTree {
	t.Helper()
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	order := 4 + next()%9               // 4..12: small nodes, many splits
	rows := int64(next()<<2 | next()&3) // 0..1023
	fill := []float64{0.9, 0.5, 1}[next()%3]

	var final *BTree
	k := sim.NewKernel()
	defer k.Close()
	k.Spawn("script", func(p *sim.Proc) {
		dense, ref := newTreeUnderTest(p, order), newTreeUnderTest(p, order)
		final = dense.bt
		dense.bt.BulkLoadRange(rows, ridFor, fill)
		ref.bt.BulkLoad(genKeys(int(rows), func(i int) int64 { return int64(i) }), ridFor, fill)
		leaves := dense.bt.denseLeaves()
		if rows > 0 && (leaves == 0 || ref.bt.denseLeaves() != 0) {
			t.Fatalf("BulkLoadRange built %d dense leaves, BulkLoad %d", leaves, ref.bt.denseLeaves())
		}
		// Until its first mutation the range-loaded tree computes its path
		// and the reference walks, so reads pin the visit order too.
		if dense.bt.computed != (rows > 0) || ref.bt.computed {
			t.Fatalf("computed path: range-loaded %v, reference %v", dense.bt.computed, ref.bt.computed)
		}

		// key draws from just below the loaded range to well past it, so
		// scripts hit misses on both sides, every leaf, and appends.
		key := func() int64 { return int64(next()<<8|next())%(rows+48) - 4 }
		for step := 0; len(script) > 0; step++ {
			op, core := next(), 0
			if op&0x80 != 0 {
				core = 1
			}
			var got, want string
			var spent [2]sim.Time
			for i, u := range []*treeUnderTest{dense, ref} {
				saved := script // both trees consume the same operands
				ctx := u.ctx[core]
				t0 := p.Now()
				var out string
				switch op & 0x7f % 8 {
				case 0, 1, 2:
					rid, ok := u.bt.Search(ctx, key())
					out = fmt.Sprintf("search %v %v", rid, ok)
				case 3:
					// The RID the loader would have given: a redo re-insert.
					k := key()
					out = fmt.Sprintf("insert %v", u.bt.Insert(ctx, k, ridFor(k)))
				case 4:
					// A RID the loader would not have given.
					k := key()
					out = fmt.Sprintf("insert %v", u.bt.Insert(ctx, k, RID{Page: PageID{Table: 9, No: k}, Slot: uint16(step)}))
				case 5:
					out = fmt.Sprintf("delete %v", u.bt.Delete(ctx, key()))
				case 6:
					// Append past everything, as the TPC-C insert tables do.
					k := rows + 48 + int64(step)
					out = fmt.Sprintf("append %v", u.bt.Insert(ctx, k, ridFor(k)))
				case 7:
					lo, limit := key(), next()%40
					hi := lo + int64(next())
					var hits []rangeHit
					u.bt.Range(ctx, lo, hi, func(k int64, rid RID) bool {
						hits = append(hits, rangeHit{k, rid})
						return len(hits) < limit
					})
					out = fmt.Sprintf("range %v", hits)
				}
				spent[i] = p.Now() - t0
				if i == 0 {
					got, script = out, saved
				} else {
					want = out
				}
			}
			fail := func(format string, args ...any) {
				t.Fatalf("order %d rows %d fill %v step %d op %#x: %s", order, rows, fill, step, op, fmt.Sprintf(format, args...))
			}
			if got != want {
				fail("dense tree says %q, reference %q", got, want)
			}
			if dense.bt.Size() != ref.bt.Size() || dense.bt.Height() != ref.bt.Height() {
				fail("size/height %d/%d, reference %d/%d", dense.bt.Size(), dense.bt.Height(), ref.bt.Size(), ref.bt.Height())
			}
			if spent[0] != spent[1] {
				fail("charged %v, reference %v", spent[0], spent[1])
			}
			if ds, rs := dense.model.TotalStats(nil), ref.model.TotalStats(nil); ds != rs {
				fail("memory statistics\n%+v, reference\n%+v", ds, rs)
			}
			if msg := dense.bt.CheckInvariants(); msg != "" {
				fail("dense tree invariant: %s", msg)
			}
			if msg := ref.bt.CheckInvariants(); msg != "" {
				fail("reference invariant: %s", msg)
			}
			if n := dense.bt.denseLeaves(); n > leaves {
				fail("dense leaves grew %d -> %d: a mutated leaf was re-compressed", leaves, n)
			} else {
				leaves = n
			}
		}

		// Whatever the script did, both trees hold the same mapping.
		var all [2][]rangeHit
		for i, u := range []*treeUnderTest{dense, ref} {
			u.bt.Range(nil, -1<<62, 1<<62, func(k int64, rid RID) bool {
				all[i] = append(all[i], rangeHit{k, rid})
				return true
			})
		}
		if fmt.Sprint(all[0]) != fmt.Sprint(all[1]) || len(all[0]) != dense.bt.Size() {
			t.Fatalf("order %d rows %d: final contents differ from the reference", order, rows)
		}
		for _, h := range all[1] {
			if rid, ok := dense.bt.Search(nil, h.key); !ok || rid != h.rid {
				t.Fatalf("order %d rows %d: Search(%d) = %v,%v want %v", order, rows, h.key, rid, ok, h.rid)
			}
		}
	})
	k.Run()
	return final
}

// TestDenseLeavesMatchExplicitReference runs random scripts of every length
// from read-only probes of an untouched tree to enough mutations to expand
// and split most leaves.
func TestDenseLeavesMatchExplicitReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 4+rng.Intn(600))
		rng.Read(script)
		if seed%5 == 0 {
			// Mostly reads: most leaves stay dense to the end.
			for i := 4; i < len(script); i += 3 {
				script[i] &^= 0x7f
			}
		}
		runBTreeScript(t, script)
	}
}

// levelWidths returns the number of nodes on each level, root first.
func (t *BTree) levelWidths() []int {
	var widths []int
	for level := []*bnode{t.root}; len(level) > 0; {
		widths = append(widths, len(level))
		var below []*bnode
		for _, n := range level {
			below = append(below, childrenOf(n)...)
		}
		level = below
	}
	return widths
}

// TestRangeLoadedTreeSplitsEveryInnerLevel fills every node of a range-loaded
// tree, then inserts below its first key, so the first node of every level
// splits, the root too; ascending appends and random inserts split the last
// nodes and more. The inner nodes share their levels' slabs, so an append to
// one that could grow into its neighbour's keys or children would corrupt
// the neighbour, which CheckInvariants reports at that step.
func TestRangeLoadedTreeSplitsEveryInnerLevel(t *testing.T) {
	// Order 4 (fan 5), 500 rows, fill 1: 125 full leaves under three full
	// inner levels.
	const rows = 500
	script := []byte{0, rows >> 2, rows & 3, 2}
	script = append(script, 3, 0, 3) // insert key -1
	for range 60 {
		script = append(script, 6) // append the next key past everything
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		op := []byte{3, 4, 0, 7}[rng.Intn(4)] | byte(rng.Intn(2))<<7
		script = append(script, op, byte(rng.Intn(256)), byte(rng.Intn(256)))
		if op&0x7f == 7 {
			script = append(script, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	}

	fresh := NewBTree(4)
	fresh.BulkLoadRange(rows, ridFor, 1)
	before := fresh.levelWidths()
	after := runBTreeScript(t, script).levelWidths()
	if len(after) <= len(before) {
		t.Fatalf("levels %v -> %v: the root did not split", before, after)
	}
	for i, w := range before[1 : len(before)-1] {
		if got := after[i+2]; got <= w {
			t.Errorf("inner level %d of %v: %d nodes -> %d, no split", i+1, before, w, got)
		}
	}
}

// TestRangeLoadedInnerNodesHaveExactCapacity: every inner node's share of its
// level's key and child arrays ends where its len does, so its first insert
// reallocates instead of growing into its neighbour's share.
func TestRangeLoadedInnerNodesHaveExactCapacity(t *testing.T) {
	for _, c := range []struct {
		order int
		rows  int64
		fill  float64
	}{{4, 500, 1}, {4, 1023, 0.9}, {8, 700, 0.5}, {DefaultBTreeOrder, 100000, 0.9}} {
		bt := NewBTree(c.order)
		bt.BulkLoadRange(c.rows, ridFor, c.fill)
		inner := 0
		var walk func(n *bnode)
		walk = func(n *bnode) {
			if n.leaf {
				return
			}
			inner++
			if cap(n.keys) != len(n.keys) || cap(n.children) != len(n.children) {
				t.Fatalf("%+v: inner node with %d/%d keys and %d/%d children (len/cap)",
					c, len(n.keys), cap(n.keys), len(n.children), cap(n.children))
			}
			for _, ch := range n.children {
				walk(ch)
			}
		}
		walk(bt.root)
		if bt.Height() < 3 || inner < 2 {
			t.Fatalf("%+v: height %d, %d inner nodes; want at least two inner levels", c, bt.Height(), inner)
		}
	}
}

// TestBNodeProbeFieldsShareOneHostLine: a node is one 64-byte host cache
// line, a node with its arrays (fullNode) a whole number of them, and the
// fields a probe reads (line, leaf, count, first, and the arrays pointer a
// dense leaf is told by) lie within 48 bytes of its start, so in a slab
// whose start is 16-byte aligned within a line — a large slab starts on a
// page, a small one after at most its 8-byte header — every node's probe
// fields share one line. That holds for the leaves bulkLoad cuts and for
// those splits cut from the tree's node slabs.
func TestBNodeProbeFieldsShareOneHostLine(t *testing.T) {
	var n bnode
	if size := unsafe.Sizeof(n); size != 64 {
		t.Fatalf("bnode is %d bytes, want 64", size)
	}
	if size := unsafe.Sizeof(fullNode{}); size%64 != 0 {
		t.Fatalf("fullNode is %d bytes, not a multiple of 64", size)
	}
	for name, end := range map[string]uintptr{
		"first":      unsafe.Offsetof(n.first) + unsafe.Sizeof(n.first),
		"nodeArrays": unsafe.Offsetof(n.nodeArrays) + unsafe.Sizeof(n.nodeArrays),
	} {
		if end > 48 {
			t.Fatalf("a probe reads bnode.%s, which ends at byte %d; want <= 48", name, end)
		}
	}
	for _, rows := range []int64{100, 1000, 100000} {
		bt := NewBTree(DefaultBTreeOrder)
		bt.BulkLoadRange(rows, ridFor, 0.9)
		for k := rows; k < rows+5000; k++ {
			bt.Insert(nil, k, ridFor(k))
		}
		for leaf := bt.root; leaf != nil; leaf = leaf.next {
			for !leaf.leaf {
				leaf = leaf.children[0]
			}
			if at := uintptr(unsafe.Pointer(leaf)) % 64; at+48 > 64 {
				t.Fatalf("%d rows: a leaf starts %d bytes into a host line; its probe fields span two", rows, at)
			}
		}
	}
}

// TestFirstAppendsPastRangeAllocateThreeSlabs: the insert that expands a
// dense leaf cuts its key and RID arrays from the tree's slabs, with room to
// grow to a split, and the struct that holds them from its node slab, so
// appending the first key past a fresh range-loaded tree costs three
// objects: the first key, RID and node slabs. The appends that follow,
// through the leaf's first split, cost two: the split's node and arrays are
// the second pieces of those slabs, and the root it adds a child to moves
// its exact-capacity arrays to full pieces, a second key slab and the first
// child slab. Five in all, as when the node slab's first cut was the split.
func TestFirstAppendsPastRangeAllocateThreeSlabs(t *testing.T) {
	const rows, runs, more = 1000, 20, 50
	trees := make([]*BTree, runs+1) // AllocsPerRun runs once more to warm up
	for i := range trees {
		trees[i] = NewBTree(DefaultBTreeOrder)
		trees[i].BulkLoadRange(rows, ridFor, 0.9)
	}
	next := 0
	first := testing.AllocsPerRun(runs, func() {
		bt := trees[next]
		next++
		if !bt.Insert(nil, rows, ridFor(rows)) {
			t.Fatal("append reported an existing key")
		}
	})
	if first != 3 {
		t.Errorf("first insert past the range allocates %v objects, want 3", first)
	}
	next = 0
	height := trees[0].Height()
	rest := testing.AllocsPerRun(runs, func() {
		bt := trees[next]
		next++
		for k := int64(rows + 1); k <= rows+more; k++ {
			bt.Insert(nil, k, ridFor(k))
		}
	})
	if rest != 2 {
		t.Errorf("the next %d appends allocate %v objects, want 2", more, rest)
	}
	for _, bt := range trees {
		if msg := bt.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
		if leaves := bt.levelWidths()[bt.Height()-1]; bt.Height() != height || leaves != 13 {
			t.Fatalf("height %d, %d leaves; want one split: height %d, 13 leaves", bt.Height(), leaves, height)
		}
	}
}

// childrenOf returns an inner node's children, none for a leaf: a dense
// leaf has no arrays to read them from.
func childrenOf(n *bnode) []*bnode {
	if n.leaf {
		return nil
	}
	return n.children
}

// forEachNode calls fn for every node of the tree, parents first.
func (t *BTree) forEachNode(fn func(n *bnode)) {
	var walk func(n *bnode)
	walk = func(n *bnode) {
		fn(n)
		for _, c := range childrenOf(n) {
			walk(c)
		}
	}
	walk(t.root)
}

// TestSplitNodesAreCutFromSlabs: what inserts add to a tree — a split's right
// half, a new root, a dense leaf's expanded arrays, a bulk-loaded node's
// regrowth — is cut from the tree's slabs. Thousands of appended and random
// inserts into a new tree and a range-loaded one must keep the tree equal to
// a map after every step; leave every array an insert gave a node at the
// capacity a node holds before it splits (order+1 keys and RIDs, order+2
// children); let a node be appended to up to that capacity without changing
// a slab neighbour; and allocate far less than once per split.
func TestSplitNodesAreCutFromSlabs(t *testing.T) {
	for _, c := range []struct {
		order int
		rows  int64
	}{{4, 0}, {5, 0}, {8, 0}, {8, 300}, {DefaultBTreeOrder, 0}, {DefaultBTreeOrder, 5000}} {
		bt := NewBTree(c.order)
		want := map[int64]RID{}
		if c.rows > 0 {
			bt.BulkLoadRange(c.rows, ridFor, 0.9)
			for k := range c.rows {
				want[k] = ridFor(k)
			}
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("order %d rows %d: %s", c.order, c.rows, fmt.Sprintf(format, args...))
		}
		same := func(step int) {
			t.Helper()
			if msg := bt.CheckInvariants(); msg != "" {
				fail("step %d: %s", step, msg)
			}
			n := 0
			bt.Range(nil, -1<<62, 1<<62, func(k int64, rid RID) bool {
				if w, ok := want[k]; !ok || w != rid {
					fail("step %d: key %d -> %v, want %v (present %v)", step, k, rid, w, ok)
				}
				n++
				return true
			})
			if n != len(want) || bt.Size() != len(want) {
				fail("step %d: %d keys in range, size %d, want %d", step, n, bt.Size(), len(want))
			}
		}
		rng := rand.New(rand.NewSource(int64(c.order)*7 + c.rows))
		next := c.rows
		insert := func(step int) {
			var k int64
			if step%3 == 0 {
				k = rng.Int63n(next+20) - 10 // random: a miss, a replace or a hole
			} else {
				k, next = next, next+1 // append, as TPC-C's inserts do
			}
			rid := RID{Page: PageID{Table: 3, No: k}, Slot: uint16(step)}
			bt.Insert(nil, k, rid)
			want[k] = rid
		}
		for step := range 3000 {
			insert(step)
			same(step)
		}

		// Capacities: every array an insert gave a node is a full piece. A
		// bulk-loaded inner node no insert reached keeps its exact share.
		explicit := 0
		bt.forEachNode(func(n *bnode) {
			switch {
			case n.dense():
			case n.leaf:
				explicit++
				if cap(n.keys) != c.order+1 || cap(n.rids) != c.order+1 {
					fail("leaf with %d/%d keys, %d/%d rids (len/cap), want cap %d",
						len(n.keys), cap(n.keys), len(n.rids), cap(n.rids), c.order+1)
				}
			case cap(n.keys) == len(n.keys) && cap(n.children) == len(n.children) && c.rows > 0:
			default:
				if cap(n.keys) != c.order+1 || cap(n.children) != c.order+2 {
					fail("inner node with %d/%d keys, %d/%d children (len/cap), want caps %d and %d",
						len(n.keys), cap(n.keys), len(n.children), cap(n.children), c.order+1, c.order+2)
				}
			}
		})
		if explicit < 20 {
			fail("%d explicit leaves; the inserts split too little", explicit)
		}

		// Neighbours: fill every node's spare capacity as an append would; no
		// node may see it, and the tree must not change.
		sentinel := &bnode{}
		bt.forEachNode(func(n *bnode) {
			if n.dense() {
				return
			}
			for i := len(n.keys); i < cap(n.keys); i++ {
				n.keys[:cap(n.keys)][i] = -1 << 62
			}
			for i := len(n.rids); i < cap(n.rids); i++ {
				n.rids[:cap(n.rids)][i] = RID{Slot: 0xdead}
			}
			for i := len(n.children); i < cap(n.children); i++ {
				n.children[:cap(n.children)][i] = sentinel
			}
		})
		bt.forEachNode(func(n *bnode) {
			if !n.dense() && (slices.Contains(n.keys, -1<<62) || slices.Contains(n.rids, RID{Slot: 0xdead}) || slices.Contains(n.children, sentinel)) {
				fail("a node's spare capacity overlaps a neighbour's entries")
			}
		})
		same(3000)

		// Allocations: past the slabs' first doublings, at most one object
		// per ten splits under appends.
		nodes := 0
		bt.forEachNode(func(*bnode) { nodes++ })
		first := next
		allocs := testing.AllocsPerRun(1, func() {
			for range 5000 {
				bt.Insert(nil, next, ridFor(next))
				next++
			}
		})
		for k := first; k < next; k++ {
			want[k] = ridFor(k)
		}
		splits := -nodes
		bt.forEachNode(func(*bnode) { splits++ })
		if splits < 50 || allocs > float64(splits)/20 {
			fail("%v objects in 5,000 appends, %d splits in 10,000; want at most one per ten splits", allocs, splits)
		}
		same(3001)
	}
}

// TestDenseLeafUntouchedByReads: Search and Range expand nothing; the first
// mutation of a leaf expands that leaf and no other.
func TestDenseLeafUntouchedByReads(t *testing.T) {
	bt := NewBTree(8)
	bt.BulkLoadRange(700, ridFor, 0.9)
	leaves := bt.denseLeaves()
	if leaves != 100 {
		t.Fatalf("%d dense leaves, want 100", leaves)
	}
	for k := int64(-3); k < 705; k++ {
		rid, ok := bt.Search(nil, k)
		if want := k >= 0 && k < 700; ok != want || (ok && rid != ridFor(k)) {
			t.Fatalf("Search(%d) = %v,%v", k, rid, ok)
		}
	}
	n := int64(95)
	bt.Range(nil, 95, 612, func(k int64, rid RID) bool {
		if k != n || rid != ridFor(k) {
			t.Fatalf("Range yielded %d,%v want %d", k, rid, n)
		}
		n++
		return true
	})
	if n != 613 || bt.denseLeaves() != leaves {
		t.Fatalf("Range ended at %d with %d dense leaves left of %d", n, bt.denseLeaves(), leaves)
	}
	bt.Delete(nil, 350)
	bt.Insert(nil, 350, ridFor(350))
	bt.Insert(nil, 0, ridFor(0)) // a replace that changes nothing still expands
	if got := bt.denseLeaves(); got != leaves-2 {
		t.Errorf("%d dense leaves after mutating two, want %d", got, leaves-2)
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Error(msg)
	}
}

// TestComputedDescentMatchesWalk: on an untouched range-loaded tree the
// computed path reaches the leaf the walk reaches, for keys on both sides of
// the loaded range and at sizes on each side of a full level; after one
// Insert or one Delete, Search walks and answers as before.
func TestComputedDescentMatchesWalk(t *testing.T) {
	orders := []int{4, 5, 6, 7, 8, 9, 10, 11, 12, DefaultBTreeOrder}
	for _, order := range orders {
		per := int64(float64(order) * 0.9)
		sizes := []int64{1, 2, 10000, 650000}
		for k, span := 0, per; k <= 3; k, span = k+1, span*(per+1) {
			sizes = append(sizes, span-1, span, span+1)
		}
		for _, n := range sizes {
			if n > 10_000_000 && testing.Short() {
				continue // order 96's 56.6 M keys: an 84 MB leaf slab
			}
			for _, mutate := range []string{"insert", "delete"} {
				bt := NewBTree(order)
				bt.BulkLoadRange(n, ridFor, 0.9)
				if !bt.computed {
					t.Fatalf("order %d n %d: BulkLoadRange kept no computed path", order, n)
				}
				// Every key of a small tree; an odd stride through a large
				// one, and always the keys around both ends.
				step := n/100_000 | 1
				var keys []int64
				for k := int64(-3); k < n+3; k += step {
					keys = append(keys, k)
				}
				for k := max(-3, n-3); k < n+3; k++ {
					keys = append(keys, k)
				}
				for _, k := range keys {
					if got, want := bt.computedLeaf(nil, k), bt.walk(nil, k); got != want {
						t.Fatalf("order %d n %d key %d: computed leaf [%d,+%d), walked [%d,+%d)",
							order, n, k, got.first, got.count, want.first, want.count)
					}
				}
				gone := int64(-1)
				if mutate == "insert" {
					bt.Insert(nil, n/2, ridFor(n/2)) // a replace: the mapping is unchanged
				} else {
					gone = n / 2
					bt.Delete(nil, gone)
				}
				if bt.computed {
					t.Fatalf("order %d n %d: computed path kept after %s", order, n, mutate)
				}
				for _, k := range keys {
					rid, ok := bt.Search(nil, k)
					if want := k >= 0 && k < n && k != gone; ok != want || (ok && rid != ridFor(k)) {
						t.Fatalf("order %d n %d after %s: Search(%d) = %v,%v", order, n, mutate, k, rid, ok)
					}
				}
			}
		}
	}
}

// TestReciprocalDividesExactly checks the computed path's division for every
// span a tree of order 4…255 can have: a leaf holds per keys, 1 ≤ per ≤ 255
// at any fill, and level l spans per·(per+1)ˡ of them. per = 1 keeps the walk.
func TestReciprocalDividesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spans := 0
	for per := uint64(2); per <= 255; per++ {
		for d := per; d < 1<<32; d *= per + 1 {
			spans++
			r := reciprocal(d)
			check := func(j uint64) {
				if q, _ := bits.Mul64(j, r); q != j/d {
					t.Fatalf("%d / %d: computed %d, want %d", j, d, q, j/d)
				}
			}
			for _, j := range []uint64{0, d - 1, d, 1<<32 - 1} {
				check(j)
			}
			for range 10_000 {
				check(uint64(rng.Uint32()))
			}
		}
	}
	if spans < 1000 {
		t.Fatalf("checked %d spans", spans)
	}
}

// TestCheckInvariantsRejectsBrokenDenseLeaves corrupts dense leaves in the
// ways CheckInvariants claims to catch.
func TestCheckInvariantsRejectsBrokenDenseLeaves(t *testing.T) {
	firstLeaf := func(bt *BTree) *bnode {
		n := bt.root
		for !n.leaf {
			n = n.children[0]
		}
		return n
	}
	for name, corrupt := range map[string]func(bt *BTree){
		"skipped expand":    func(bt *BTree) { firstLeaf(bt).nodeArrays = &nodeArrays{keys: []int64{0}, rids: []RID{{}}} },
		"negative count":    func(bt *BTree) { firstLeaf(bt).count = -1 },
		"no locate":         func(bt *BTree) { bt.locate = nil },
		"beyond separator":  func(bt *BTree) { firstLeaf(bt).count++ },
		"chain overlap":     func(bt *BTree) { firstLeaf(bt).next.first-- },
		"size disagreement": func(bt *BTree) { n := firstLeaf(bt); n.first++; n.count-- },
		"dense inner node":  func(bt *BTree) { bt.root.count = 3 },
	} {
		bt := NewBTree(8)
		bt.BulkLoadRange(200, ridFor, 0.9)
		if msg := bt.CheckInvariants(); msg != "" {
			t.Fatalf("fresh tree: %s", msg)
		}
		corrupt(bt)
		if bt.CheckInvariants() == "" {
			t.Errorf("%s: not detected", name)
		}
	}
}

// FuzzBTreeOps feeds runBTreeScript whatever the fuzzer finds.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{4, 50, 1, 0, 3, 0, 20, 5, 0, 20, 0x87, 0, 0, 30, 255, 6, 0, 0, 21})
	// Read-only on a 6-level tree (order 4, 1,023 rows, fill 0.9): searches
	// of keys -4…1066 from both cores, so the computed path must match the
	// walking reference's every charge and coherence statistic.
	read := []byte{0, 255, 3, 0}
	for k := 0; k < 1071; k += 7 {
		read = append(read, byte(k%2)<<7|byte(k%3), byte(k>>8), byte(k))
	}
	f.Add(read)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		script := make([]byte, 200)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2000 {
			script = script[:2000] // bound one execution; longer adds nothing
		}
		runBTreeScript(t, script)
	})
}

// BenchmarkBTreeSearchDense probes a range-loaded, never-mutated index of
// the benchmark's table size at random: arithmetic in the leaf, no
// allocation (CI gates on it).
func BenchmarkBTreeSearchDense(b *testing.B) {
	withCtx(b, func(ctx *exec.Ctx) {
		tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 100000}
		bt := NewBTree(DefaultBTreeOrder)
		bt.BulkLoadRange(tab.NumRows, tab.Locate, 0.9)
		rng := rand.New(rand.NewSource(1))
		keys := make([]int64, 1<<16)
		for i := range keys {
			keys[i] = rng.Int63n(tab.NumRows)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rid, ok := bt.Search(ctx, keys[i&(len(keys)-1)])
			if !ok {
				b.Fatal("key missing")
			}
			benchSink += int(rid.Slot)
		}
	})
}

// BenchmarkBulkLoadRange loads the same index; allocs/op is the number to
// watch (CI gates it at 12): one slab of nodes per level, one key and one
// child array per inner level, and no key or RID arrays in the leaves,
// however many leaves there are.
func BenchmarkBulkLoadRange(b *testing.B) {
	tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 100000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewBTree(DefaultBTreeOrder).BulkLoadRange(tab.NumRows, tab.Locate, 0.9)
	}
}
