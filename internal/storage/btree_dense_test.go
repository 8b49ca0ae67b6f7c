package storage

import (
	"fmt"
	"maps"
	"math"
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

// The tests in this file pin the invariant behind the range-loaded form: a
// tree built by BulkLoadRange — lines for the leaves nobody wrote, computed
// nodes above them — is, to every caller and to the simulated machine, the
// tree BulkLoad builds over the same keys with every leaf and node explicit.
// They drive both through one script and compare after every step. "Dense
// leaves" are the range's leaves nobody wrote.

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

// denseLeaves counts the leaves of the loaded range nobody wrote.
func (t *BTree) denseLeaves() int { return len(t.leaves) - len(t.written) }

// eachNode calls fn for every node of the tree, parents first and children
// in key order, with its depth (the root's is 1): a leaf of the loaded range
// as its number j and its node, nil while nobody wrote it; any other node as
// itself and j = -1.
func (t *BTree) eachNode(fn func(n *bnode, j, depth int)) {
	var visit func(n *bnode, j, depth int, lo int64)
	visit = func(n *bnode, j, depth int, lo int64) {
		if n == nil {
			j = t.leafNo(lo)
			n = t.leaf(j)
		}
		fn(n, j, depth)
		switch {
		case n == nil || n.leaf:
		case n.children == nil:
			a := t.leafNo(lo)
			for c := a; c < min(a+int(t.per)+1, len(t.leaves)); c++ {
				visit(nil, c, depth+1, int64(c)*t.per)
			}
		default:
			for i, c := range n.children {
				clo := lo
				if i > 0 {
					clo = n.keys[i-1]
				}
				visit(c, -1, depth+1, clo)
			}
		}
	}
	visit(t.top(), -1, 1, math.MinInt64)
}

// forEachNode calls fn for every node the tree has, parents first: not the
// leaves of the loaded range nobody wrote.
func (t *BTree) forEachNode(fn func(n *bnode)) {
	t.eachNode(func(n *bnode, _, _ int) {
		if n != nil {
			fn(n)
		}
	})
}

// nodeCount returns the number of nodes the tree has.
func (t *BTree) nodeCount() int {
	nodes := 0
	t.forEachNode(func(*bnode) { nodes++ })
	return nodes
}

// levelWidths returns the number of nodes on each level, root first,
// counting the leaves nobody wrote.
func (t *BTree) levelWidths() []int {
	var widths []int
	t.eachNode(func(_ *bnode, _, depth int) {
		for len(widths) < depth {
			widths = append(widths, 0)
		}
		widths[depth-1]++
	})
	return widths
}

// lines returns the state of every node's line, in eachNode's order: the
// lines the tree's visits have touched, as the simulated machine sees them.
func (t *BTree) lines() []mem.Line {
	var lines []mem.Line
	t.eachNode(func(n *bnode, j, _ int) {
		if n != nil {
			lines = append(lines, n.line)
		} else {
			lines = append(lines, t.leaves[j].line)
		}
	})
	return lines
}

type rangeHit struct {
	key int64
	rid RID
}

// runBTreeScript interprets script as a tree geometry followed by operations
// and applies every operation to a BulkLoadRange-built tree and to a
// BulkLoad-built reference, failing on the first difference in results,
// Size, Height, shape, the state of every node's line, virtual time charged,
// memory statistics or invariants. It returns the range-loaded tree as the
// script left it.
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
			// Same shape, and each node's line in the state the reference's
			// is in: a visit that touched another node's line shows here
			// even where the totals agree.
			if dw, rw := dense.bt.levelWidths(), ref.bt.levelWidths(); !slices.Equal(dw, rw) {
				fail("level widths %v, reference %v", dw, rw)
			}
			if dl, rl := dense.bt.lines(), ref.bt.lines(); !slices.Equal(dl, rl) {
				i := 0
				for i < min(len(dl), len(rl)) && dl[i] == rl[i] {
					i++
				}
				fail("node lines differ from node %d of %d/%d on", i, len(dl), len(rl))
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

// btreeScript assembles a runBTreeScript script operation by operation.
type btreeScript []byte

// newBTreeScript starts a script over a tree of the given order (4…12),
// rows (below 1,024) and fill (0 for 0.9, 1 for 0.5, 2 for 1).
func newBTreeScript(order, rows, fill int) *btreeScript {
	return &btreeScript{byte(order - 4), byte(rows >> 2), byte(rows & 3), byte(fill)}
}

// op appends operation op from core, then its operands: keys (each at least
// -4 and below rows+44) and bytes.
func (s *btreeScript) op(op, core int, keys []int64, bytes ...byte) {
	*s = append(*s, byte(op|core<<7))
	for _, k := range keys {
		*s = append(*s, byte((k+4)>>8), byte(k+4))
	}
	*s = append(*s, bytes...)
}

func (s *btreeScript) search(core int, k int64)  { s.op(0, core, []int64{k}) }
func (s *btreeScript) replace(core int, k int64) { s.op(3, core, []int64{k}) }
func (s *btreeScript) remove(core int, k int64)  { s.op(5, core, []int64{k}) }
func (s *btreeScript) appendKey(core int)        { s.op(6, core, nil) }

// scan ranges from lo over width keys, stopping after 39 hits.
func (s *btreeScript) scan(core int, lo int64, width byte) {
	s.op(7, core, []int64{lo}, 39, width)
}

// shapeScripts are the mutation shapes TPC-C gives a range-loaded index,
// each with the reads that follow it, as runBTreeScript scripts.
func shapeScripts() map[string][]byte {
	// Appends past the loaded range (order line, order, history): the last
	// leaf is written and splits over and over, the computed node above it
	// gets its arrays, and that node and the levels above it split.
	// Searches and scans cross from unwritten leaves into appended ones.
	appends := newBTreeScript(5, 1000, 0) // 250 leaves, height 5
	for i := range 300 {
		appends.appendKey(i % 2)
		if i%10 == 9 {
			appends.search(0, int64(999-i%8))
			appends.search(1, int64(i*37%1000))
			appends.search(0, 1040)
			appends.scan(1, 988, 255)
		}
	}
	// Deletes from the range's front (Delivery's new orders): leaf after
	// leaf of the range is written and emptied, and scans start among the
	// deleted keys and run on into leaves nobody wrote.
	front := newBTreeScript(8, 700, 0) // 100 leaves, height 4
	for k := range int64(120) {
		front.remove(int(k%2), k)
		front.search(1, k)
		front.search(0, k+7)
		if k%7 == 6 {
			front.scan(int(k/7%2), 0, 200)
		}
	}
	// Scans across written and unwritten leaves: every fifth leaf written
	// by a replace that keeps its mapping, every seventh losing a key, the
	// first split by keys below the range; then scans from everywhere.
	mixed := newBTreeScript(6, 600, 1) // 200 leaves of 3 keys, height 5
	for j := int64(0); j < 200; j += 5 {
		mixed.replace(int(j%2), 3*j)
	}
	for j := int64(3); j < 200; j += 7 {
		mixed.remove(int(j%2), 3*j+1)
	}
	for k := int64(-4); k < 0; k++ {
		mixed.replace(1, k)
	}
	for lo := int64(-4); lo < 610; lo += 11 {
		mixed.scan(int(lo%2+2)%2, lo, byte(lo%60))
	}
	return map[string][]byte{"appends": *appends, "front deletes": *front, "mixed scans": *mixed}
}

// TestDenseLeavesMatchExplicitReference runs TPC-C's mutation shapes, then
// random scripts of every length from read-only probes of an untouched tree
// to enough mutations to write and split most leaves.
func TestDenseLeavesMatchExplicitReference(t *testing.T) {
	for name, script := range shapeScripts() {
		t.Run(name, func(t *testing.T) {
			bt := runBTreeScript(t, script)
			if bt.denseLeaves() == 0 || len(bt.written) == 0 {
				t.Fatalf("%d leaves left unwritten, %d written: the shape crosses no boundary", bt.denseLeaves(), len(bt.written))
			}
		})
	}
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
// reallocates instead of growing into its neighbour's share; and the lowest
// inner level has no arrays at all, its children being computed.
func TestRangeLoadedInnerNodesHaveExactCapacity(t *testing.T) {
	for _, c := range []struct {
		order int
		rows  int64
		fill  float64
	}{{4, 500, 1}, {4, 1023, 0.9}, {8, 700, 0.5}, {DefaultBTreeOrder, 100000, 0.9}} {
		bt := NewBTree(c.order)
		bt.BulkLoadRange(c.rows, ridFor, c.fill)
		inner := 0
		bt.forEachNode(func(n *bnode) {
			if n.leaf {
				t.Fatalf("%+v: a leaf of a fresh range-loaded tree has a node", c)
			}
			inner++
			if cap(n.keys) != len(n.keys) || cap(n.children) != len(n.children) {
				t.Fatalf("%+v: inner node with %d/%d keys and %d/%d children (len/cap)",
					c, len(n.keys), cap(n.keys), len(n.children), cap(n.children))
			}
		})
		lowest := bt.flat[1].inner
		for i := range lowest {
			if n := &lowest[i]; n.keys != nil || n.children != nil {
				t.Fatalf("%+v: lowest inner node %d has arrays", c, i)
			}
		}
		if bt.Height() < 3 || inner < 2 || len(lowest) != bt.levelWidths()[bt.Height()-2] {
			t.Fatalf("%+v: height %d, %d inner nodes, %d lowest; want at least two inner levels", c, bt.Height(), inner, len(lowest))
		}
	}
}

// TestBNodeProbeFieldsShareOneHostLine: a node is two 64-byte host cache
// lines and a leaf of the loaded range's line a quarter of one. The fields
// a leaf's visit reads (line, leaf, keys) lie within 48 bytes of the node's
// start, so in a slab whose start is 16-byte aligned within a line — a large
// slab starts on a page, a small one after at most its 8-byte header — they
// share one line, and an inner node's children follow at most one line on.
// That holds for the levels bulkLoad cuts and for the nodes writes cut from
// the tree's node slabs.
func TestBNodeProbeFieldsShareOneHostLine(t *testing.T) {
	var n bnode
	if size := unsafe.Sizeof(n); size != 128 {
		t.Fatalf("bnode is %d bytes, want 128", size)
	}
	if size := unsafe.Sizeof(leafLine{}); size != 16 {
		t.Fatalf("leafLine is %d bytes, want 16", size)
	}
	for name, end := range map[string]uintptr{
		"leaf": unsafe.Offsetof(n.leaf) + unsafe.Sizeof(n.leaf),
		"keys": unsafe.Offsetof(n.keys) + unsafe.Sizeof(n.keys),
	} {
		if end > 48 {
			t.Fatalf("a leaf's visit reads bnode.%s, which ends at byte %d; want <= 48", name, end)
		}
	}
	if end := unsafe.Offsetof(n.children) + unsafe.Sizeof(n.children); end > 64 {
		t.Fatalf("an inner node's visit reads bnode.children, which ends at byte %d; want <= 64", end)
	}
	for _, rows := range []int64{100, 1000, 100000} {
		bt := NewBTree(DefaultBTreeOrder)
		bt.BulkLoadRange(rows, ridFor, 0.9)
		for k := rows; k < rows+5000; k++ {
			bt.Insert(nil, k, ridFor(k))
		}
		bt.forEachNode(func(n *bnode) {
			if at := uintptr(unsafe.Pointer(n)) % 64; at+48 > 64 {
				t.Fatalf("%d rows: a node starts %d bytes into a host line; its probe fields span two", rows, at)
			}
		})
	}
}

// TestFirstAppendsPastRangeAllocateThreeSlabs: the insert that writes a leaf
// of the loaded range cuts its node from the tree's node slab and its key
// and RID arrays from the key and RID slabs, with room to grow to a split,
// so appending the first key past a fresh range-loaded tree costs three
// objects: the first node, key and RID slabs. The appends that follow,
// through the leaf's first split, cost two: the split's node and arrays are
// the second pieces of those slabs, and the root it adds a child to, a
// computed node, gets its arrays as full pieces, a third key piece (a
// second key slab) and the first child slab. Five in all, as when the node
// slab's first cut was the split.
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

// TestSplitNodesAreCutFromSlabs: what inserts add to a tree — a split's right
// half, a new root, a written leaf's node and arrays, a computed node's
// arrays, a bulk-loaded node's regrowth — is cut from the tree's slabs. Thousands of appended and random
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
		// bulk-loaded inner node no split reached keeps its exact share, or
		// none if it is computed.
		explicit := 0
		bt.forEachNode(func(n *bnode) {
			switch {
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
			if slices.Contains(n.keys, -1<<62) || slices.Contains(n.rids, RID{Slot: 0xdead}) || slices.Contains(n.children, sentinel) {
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

// TestDenseLeafUntouchedByReads: Search and Range write no leaf; the first
// mutation of a leaf gives that leaf, and no other, its node.
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
	bt.Insert(nil, 0, ridFor(0)) // a replace that changes nothing still writes
	if got := bt.denseLeaves(); got != leaves-2 {
		t.Errorf("%d dense leaves after mutating two, want %d", got, leaves-2)
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Error(msg)
	}
}

// TestComputedDescentMatchesWalk: on an untouched range-loaded tree the
// computed path reaches the leaf the walk reaches, for keys on both sides of
// the loaded range and at sizes on each side of a full level. After one
// Insert, one Delete, or TPC-C's shapes — appends past the range, deletes
// from its front — the tree walks, and Search and a Range across written
// and unwritten leaves answer as the mapping says; up to 20,000 keys, as an
// explicitly loaded reference given the same writes answers, in a tree of
// the same shape.
func TestComputedDescentMatchesWalk(t *testing.T) {
	orders := []int{4, 5, 6, 7, 8, 9, 10, 11, 12, DefaultBTreeOrder}
	for _, order := range orders {
		per := int64(float64(order) * 0.9)
		sizes := []int64{1, 2, 10000, 650000}
		for k, span := 0, per; k <= 3; k, span = k+1, span*(per+1) {
			sizes = append(sizes, span-1, span, span+1)
		}
		for _, n := range sizes {
			for _, mutate := range []string{"insert", "delete", "appends", "front deletes"} {
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
					got := bt.computedLeaf(nil, k)
					if node, want := bt.walk(nil, k); node != nil || got != want {
						t.Fatalf("order %d n %d key %d: computed leaf %d, walked to %d (node %p)", order, n, k, got, want, node)
					}
				}

				var ref *BTree
				if n <= 20_000 {
					ref = NewBTree(order)
					ref.BulkLoad(genKeys(int(n), func(i int) int64 { return int64(i) }), ridFor, 0.9)
				}
				insert := func(k int64) {
					for _, u := range []*BTree{bt, ref} {
						if u != nil {
							u.Insert(nil, k, ridFor(k))
						}
					}
				}
				remove := func(k int64) {
					for _, u := range []*BTree{bt, ref} {
						if u != nil {
							u.Delete(nil, k)
						}
					}
				}
				present := func(k int64) bool { return k >= 0 && k < n }
				lo, hi := n/2-per, n/2+per
				switch mutate {
				case "insert":
					insert(n / 2) // a replace: the mapping is unchanged
				case "delete":
					present = func(k int64) bool { return k >= 0 && k < n && k != n/2 }
					remove(n / 2)
				case "appends":
					// Enough to split the last leaf twice, so the computed
					// node above it gets its arrays.
					last := n + 2*int64(order) + 1
					present = func(k int64) bool { return k >= 0 && k < last }
					lo, hi = n-3*per, last+3
					for k := n; k < last; k++ {
						keys = append(keys, k)
						insert(k)
					}
				case "front deletes":
					gone := min(n, 3*per+1) // three leaves and a key of a fourth
					present = func(k int64) bool { return k >= gone && k < n }
					lo, hi = -3, gone+3*per
					for k := range gone {
						remove(k)
					}
				}
				if bt.computed {
					t.Fatalf("order %d n %d: computed path kept after %s", order, n, mutate)
				}
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("order %d n %d after %s: %s", order, n, mutate, fmt.Sprintf(format, args...))
				}
				if msg := bt.CheckInvariants(); msg != "" {
					fail("%s", msg)
				}
				for _, k := range keys {
					rid, ok := bt.Search(nil, k)
					if want := present(k); ok != want || (ok && rid != ridFor(k)) {
						fail("Search(%d) = %v,%v", k, rid, ok)
					}
					if ref != nil {
						if rrid, rok := ref.Search(nil, k); rrid != rid || rok != ok {
							fail("Search(%d) = %v,%v, reference %v,%v", k, rid, ok, rrid, rok)
						}
					}
				}
				var got, want []int64
				bt.Range(nil, lo, hi, func(k int64, rid RID) bool {
					if rid != ridFor(k) {
						fail("Range yielded %d,%v", k, rid)
					}
					got = append(got, k)
					return true
				})
				for k := lo; k <= hi; k++ {
					if present(k) {
						want = append(want, k)
					}
				}
				if !slices.Equal(got, want) {
					fail("Range(%d, %d) = %v, want %v", lo, hi, got, want)
				}
				if ref != nil && !slices.Equal(bt.levelWidths(), ref.levelWidths()) {
					fail("level widths %v, reference %v", bt.levelWidths(), ref.levelWidths())
				}
			}
		}
	}
}

// TestReciprocalDividesExactly checks the computed path's division for every
// span a tree of order 4…255 can have: a leaf holds per keys, 2 ≤ per ≤ 255
// at any fill (leafKeys), and level l spans per·(per+1)ˡ of them.
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

// TestCheckInvariantsRejectsBrokenDenseLeaves corrupts a range-loaded tree
// in the ways CheckInvariants claims to catch.
func TestCheckInvariantsRejectsBrokenDenseLeaves(t *testing.T) {
	for name, corrupt := range map[string]func(bt *BTree){
		"no locate":                  func(bt *BTree) { bt.locate = nil },
		"written index out of range": func(bt *BTree) { bt.leaves[1].node = 1 },
		"two leaves share a node": func(bt *BTree) {
			bt.Insert(nil, 7, ridFor(7))
			bt.leaves[2].node = bt.leaves[1].node
		},
		"unindexed written node":   func(bt *BTree) { bt.written = append(bt.written, &bnode{leaf: true}) },
		"written on computed path": func(bt *BTree) { bt.write(3) },
		"beyond separator": func(bt *BTree) {
			bt.Insert(nil, 7, ridFor(7))
			n := bt.leaf(1)
			n.keys, n.rids = append(n.keys, 14), append(n.rids, ridFor(14))
		},
		"chain skips a leaf": func(bt *BTree) {
			bt.Insert(nil, 0, ridFor(0))
			bt.leaf(0).succ = 2
		},
		"size disagreement":             func(bt *BTree) { bt.size++ },
		"height disagreement":           func(bt *BTree) { bt.height++ },
		"computed node not the loaded":  func(bt *BTree) { bt.root.children[1] = &bnode{} },
		"nil child over several leaves": func(bt *BTree) { bt.root.children[0] = nil },
	} {
		bt := NewBTree(8)
		bt.BulkLoadRange(200, ridFor, 0.9) // 29 leaves under 4 computed nodes
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
	// TPC-C's mutation shapes: appends past the range, deletes from its
	// front, scans across written and unwritten leaves.
	shapes := shapeScripts()
	for _, name := range slices.Sorted(maps.Keys(shapes)) {
		f.Add(shapes[name])
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

// A tree that escapes, as every instance's index does, is one object until
// it is used: BulkLoadRange replaces the root, so NewBTree makes none (an
// empty leaf each, 128 bytes, before), and the first operation on a tree
// nothing was loaded into makes the empty root leaf.
func TestNewBTreeAllocatesNoRoot(t *testing.T) {
	var bt *BTree
	if n := testing.AllocsPerRun(100, func() { bt = NewBTree(DefaultBTreeOrder) }); n != 1 {
		t.Errorf("NewBTree allocates %v objects, want 1", n)
	}
	if _, ok := bt.Search(nil, 7); ok || bt.Height() != 1 || bt.Size() != 0 || bt.CheckInvariants() != "" {
		t.Fatalf("fresh tree: found 7, height %d, size %d, %q", bt.Height(), bt.Size(), bt.CheckInvariants())
	}
	if !bt.Insert(nil, 7, RID{Slot: 3}) {
		t.Fatal("first insert not new")
	}
	if rid, ok := bt.Search(nil, 7); !ok || rid.Slot != 3 || bt.CheckInvariants() != "" {
		t.Fatalf("after insert: %v %v, %q", rid, ok, bt.CheckInvariants())
	}
}

// BenchmarkBulkLoadRange loads the same index; allocs/op is the number to
// watch (CI gates it at 12): one slab of nodes per level, one key and one
// child array per inner level, and no key or RID arrays in the leaves,
// however many leaves there are. Here the tree does not escape, so it stays
// on the stack; the seventh object is the tab.Locate method value.
func BenchmarkBulkLoadRange(b *testing.B) {
	tab := &Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 100000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewBTree(DefaultBTreeOrder).BulkLoadRange(tab.NumRows, tab.Locate, 0.9)
	}
}
