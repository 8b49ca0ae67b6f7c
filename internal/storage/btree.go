package storage

import (
	"math/bits"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
)

// B+tree cost constants.
const (
	// CostBTreeLevelCPU is the binary-search compute per node visited.
	CostBTreeLevelCPU = 30 * sim.Nanosecond
	// DefaultBTreeOrder is the maximum number of keys per node.
	DefaultBTreeOrder = 96
)

// BTree is an in-memory B+tree mapping int64 keys to RIDs: the primary
// index of every table, standing in for Shore-MT's B-link trees. Each node
// carries a coherence-tracked line, so index traversals by instances that
// span sockets generate the cross-socket traffic the paper observes.
//
// Deletion is lazy (keys are removed from leaves without rebalancing),
// matching the common production choice; structure invariants still hold
// and are verified by CheckInvariants in tests.
//
// A range-loaded tree (BulkLoadRange) keeps only lines for the leaves
// nobody wrote. Its keys are 0..n-1 and the RID of key k is locate(k), so
// leaf j of the loaded range holds keys j·per up to (j+1)·per−1 (the last
// one fewer), and all it keeps is the line a visit touches (leafLine). The
// lowest inner level has no arrays either: a computed node's children are
// the leaves under it, in order, and its keys their first keys. The first
// Insert or Delete that writes a leaf gives it a node, which takes over the
// line and holds the keys and RIDs the loader gave it (write); the first
// split below a computed node gives it the arrays a load would have built
// (explicate). In any node's children, nil stands for a leaf of the loaded
// range, found by number (leafNo). So tree shape, split points, node visits
// and charges never depend on the form: to every caller and to the
// simulated machine the tree is the one an explicit load of the same keys
// builds, whose leaves all hold their keys.
type BTree struct {
	order  int
	root   *bnode // nil while the root is the loaded range's only leaf (see top)
	height int
	size   int

	// The loaded range: keys [0, loaded), per to a leaf, their RIDs by
	// locate (BulkLoadRange's rid function), a line per leaf and the nodes
	// of the leaves written, each indexed from its leaf's line.
	locate  func(key int64) RID
	loaded  int64
	per     int64
	leaves  []leafLine
	written []*bnode

	// While computed is set, the tree is exactly what BulkLoadRange built
	// and Search computes its path (see computedLeaf) from flat: each
	// level's reciprocal and, above the leaves, its node array. The first
	// Insert or Delete clears it for good. The walk uses flat too: level 0's
	// reciprocal numbers a key's leaf, level 1's a computed node.
	computed bool
	flat     [maxFlatLevels]flatLevel

	// The nodes and arrays that writes add — a written leaf, a split's right
	// half, a new root, a computed node's arrays, a bulk-loaded node's first
	// regrowth — are cut from these slabs, never allocated one by one.
	nodes slab[bnode]
	keys  slab[int64]
	rids  slab[RID]
	kids  slab[*bnode]
}

// leafLine is a leaf of the loaded range: its line while nobody wrote it,
// and then where its node is. It is 16 bytes, four to a host cache line.
type leafLine struct {
	line mem.Line
	node uint32 // 1 + the index of the leaf's node in BTree.written; 0 before
}

// flatLevel is one level of a range-loaded tree: its node array, nil on
// level 0 (BTree.leaves), and ⌈2⁶⁴/span⌉, where span is the number of keys
// under one of its nodes. The high word of j·recip is ⌊j/span⌋ for every
// j < 2³² (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019), so no probe divides. The root's recip is 0: its
// index is always 0.
type flatLevel struct {
	inner []bnode
	recip uint64
}

// maxFlatLevels bounds the height of a range-loaded tree: below 2³² keys at
// two keys to a leaf and three children to a node, 2³¹ leaves under 20
// levels of inner nodes.
const maxFlatLevels = 21

// slab hands out equal pieces of arrays it allocates whole. Each array holds
// twice the pieces of the one before, from 2 up to maxSlabPieces, so a tree
// that rarely splits keeps a small one and a growing tree allocates once
// per maxSlabPieces splits.
type slab[T any] struct {
	free   []T
	pieces int
}

const maxSlabPieces = 64

// cut returns a piece of length n and capacity size (see the package's cut).
func (s *slab[T]) cut(n, size int) []T {
	if len(s.free) < size {
		s.pieces = min(max(2*s.pieces, 2), maxSlabPieces)
	}
	return cut(&s.free, n, size, s.pieces*size)
}

// bnode is a leaf or an inner node. Its first fields are the ones a visit
// reads — the line, whether it is a leaf, its keys and children — so they
// share the first of the node's two host cache lines.
type bnode struct {
	line     mem.Line
	leaf     bool
	keys     []int64
	children []*bnode // inner nodes; nil on a computed one
	rids     []RID    // leaves
	// The leaf after a leaf in key order is next, or, when next is nil, leaf
	// succ of the loaded range (none when succ ≥ len(BTree.leaves)).
	next *bnode
	succ int
	_    [24]byte // fills the node to 128 bytes, two host cache lines
}

// NewBTree returns an empty tree with the given order (max keys per node);
// order < 4 falls back to DefaultBTreeOrder. It allocates no root: a tree
// that BulkLoadRange loads next never needs the empty one (see top).
func NewBTree(order int) *BTree {
	if order < 4 {
		order = DefaultBTreeOrder
	}
	return &BTree{order: order, height: 1}
}

// top returns the root: nil while the root is the loaded range's only leaf,
// and for a tree that holds no loaded range, its root node, made on first
// use as an empty leaf without arrays, which the first Insert cuts.
func (t *BTree) top() *bnode {
	if t.root == nil && t.leaves == nil {
		t.root = &bnode{leaf: true}
	}
	return t.root
}

// Size returns the number of keys.
func (t *BTree) Size() int { return t.size }

// Height returns the number of levels.
func (t *BTree) Height() int { return t.height }

// touch charges one node visit, whose line is l, to ctx (nil ctx skips
// charging, for loads and tests).
func (t *BTree) touch(ctx *exec.Ctx, l *mem.Line, write bool) {
	if ctx == nil {
		return
	}
	ctx.Charge(CostBTreeLevelCPU)
	if write {
		ctx.WriteLine(l)
	} else {
		ctx.ReadLine(l)
	}
}

// Search returns the RID for key.
func (t *BTree) Search(ctx *exec.Ctx, key int64) (RID, bool) {
	var n *bnode
	var j int
	if t.computed {
		j = t.computedLeaf(ctx, key)
	} else {
		n, j = t.walk(ctx, key)
	}
	if n == nil {
		// A leaf nobody wrote holds all its keys: key is one of them if it
		// is in the loaded range at all.
		t.touch(ctx, &t.leaves[j].line, false)
		if uint64(key) < uint64(t.loaded) {
			return t.locate(key), true
		}
		return RID{}, false
	}
	t.touch(ctx, &n.line, false)
	i := lowerBound(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.rids[i], true
	}
	return RID{}, false
}

// walk touches the inner nodes from the root down to the leaf that covers
// key, and returns that leaf untouched: its node, or nil and its number for
// a leaf of the loaded range nobody wrote.
func (t *BTree) walk(ctx *exec.Ctx, key int64) (*bnode, int) {
	n := t.top()
	for n != nil && !n.leaf {
		t.touch(ctx, &n.line, false)
		n = n.child(key)
	}
	if n != nil {
		return n, 0
	}
	j := t.leafNo(key)
	return t.leaf(j), j
}

// child returns the child of inner node n that covers key, nil for a leaf
// of the loaded range.
func (n *bnode) child(key int64) *bnode {
	if n.children == nil {
		return nil
	}
	return n.children[childIndex(n.keys, key)]
}

// leafNo returns the number of the loaded range's leaf that covers key: the
// ⌊j/per⌋-th for j = clamp(key). A nil child reached by key is that leaf: no
// separator ever lies inside a leaf of the range.
func (t *BTree) leafNo(key int64) int {
	hi, _ := bits.Mul64(t.clamp(key), t.flat[0].recip)
	return int(hi)
}

// clamp returns key clamped into the loaded range [0, loaded): a key outside
// it falls to the range's first or last leaf, as in the walk.
func (t *BTree) clamp(key int64) uint64 { return uint64(min(max(key, 0), t.loaded-1)) }

// leaf returns leaf j of the loaded range's node, nil if nobody wrote it.
func (t *BTree) leaf(j int) *bnode {
	if w := t.leaves[j].node; w != 0 {
		return t.written[w-1]
	}
	return nil
}

// computedLeaf is walk for a tree still in the computed form. A key's node
// on level l is the ⌊j/span_l⌋-th, where j = clamp(key), so the same nodes
// are touched in the same order, with no key compare and no address that
// waits on the node above. It returns the number of the leaf, which nobody
// wrote.
func (t *BTree) computedLeaf(ctx *exec.Ctx, key int64) int {
	j := t.clamp(key)
	for l := t.height - 1; l > 0; l-- {
		lv := &t.flat[l]
		hi, _ := bits.Mul64(j, lv.recip)
		t.touch(ctx, &lv.inner[hi].line, false)
	}
	return t.leafNo(key)
}

// lowerBound returns the first index whose key is >= key; childIndex returns
// which child subtree of an inner node covers key: keys[i] is the smallest
// key of children[i+1], so it is the first index whose key is > key.
//
// Both are branchless halving searches: each step keeps the lower or upper
// half of the candidate range by adding half masked by a 0/1 compare, so the
// only branches are the loop's, whose trip count follows len(keys), and a
// probe pays no mispredicted compare at any level of the descent. The
// compare is the borrow out of an unsigned subtraction of sign-flipped keys
// (x ^ 1<<63 maps int64 order onto uint64 order), exact for every int64.
// The results are those of the plain binary searches they replace, kept in
// reference_test.go.
func lowerBound(keys []int64, key int64) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	k := uint64(key) ^ signBit
	base := 0
	for n > 1 {
		half := n >> 1
		_, lt := bits.Sub64(uint64(keys[base+half-1])^signBit, k, 0) // keys[base+half-1] < key
		base += half & -int(lt)
		n -= half
	}
	_, lt := bits.Sub64(uint64(keys[base])^signBit, k, 0)
	return base + int(lt)
}

func childIndex(keys []int64, key int64) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	k := uint64(key) ^ signBit
	base := 0
	for n > 1 {
		half := n >> 1
		_, gt := bits.Sub64(k, uint64(keys[base+half-1])^signBit, 0) // key < keys[base+half-1]
		base += half & int(gt-1)
		n -= half
	}
	_, gt := bits.Sub64(k, uint64(keys[base])^signBit, 0)
	return base + int(gt^1)
}

// signBit flips an int64's sign so unsigned order is signed order.
const signBit = 1 << 63

// Insert adds or replaces the mapping for key. It reports whether the key
// was new.
func (t *BTree) Insert(ctx *exec.Ctx, key int64, rid RID) bool {
	t.computed = false
	promoted, right, added := t.insert(ctx, t.top(), key, rid)
	if right != nil {
		newRoot := t.newInner(1)
		newRoot.keys[0] = promoted
		newRoot.children[0], newRoot.children[1] = t.root, right
		t.root = newRoot
		t.height++
	}
	if added {
		t.size++
	}
	return added
}

// insert adds key under n, nil for the leaf of the loaded range that covers
// key.
func (t *BTree) insert(ctx *exec.Ctx, n *bnode, key int64, rid RID) (promoted int64, right *bnode, added bool) {
	if n == nil {
		n = t.write(t.leafNo(key))
	}
	if n.leaf {
		t.touch(ctx, &n.line, true)
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.rids[i] = rid
			return 0, nil, false
		}
		n.keys = append(room(&t.keys, n.keys, t.order+1), 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.rids = append(room(&t.rids, n.rids, t.order+1), RID{})
		copy(n.rids[i+1:], n.rids[i:])
		n.rids[i] = rid
		if len(n.keys) <= t.order {
			return 0, nil, true
		}
		// As for inner nodes (newInner), the right half's arrays are cut at
		// full capacity and the left half keeps its own.
		mid := len(n.keys) / 2
		r := t.newNode()
		r.leaf, r.next, r.succ = true, n.next, n.succ
		r.keys = t.keys.cut(len(n.keys)-mid, t.order+1)
		r.rids = t.rids.cut(len(n.rids)-mid, t.order+1)
		copy(r.keys, n.keys[mid:])
		copy(r.rids, n.rids[mid:])
		n.keys = n.keys[:mid]
		n.rids = n.rids[:mid]
		n.next = r
		return r.keys[0], r, true
	}

	t.touch(ctx, &n.line, false)
	promoted, right, added = t.insert(ctx, n.child(key), key, rid)
	if right == nil {
		return 0, nil, added
	}
	t.touch(ctx, &n.line, true)
	if n.children == nil {
		t.explicate(n, key)
	}
	ci := childIndex(n.keys, key)
	n.keys = append(room(&t.keys, n.keys, t.order+1), 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = promoted
	n.children = append(room(&t.kids, n.children, t.order+2), nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.keys) <= t.order {
		return 0, nil, added
	}
	mid := len(n.keys) / 2
	up := n.keys[mid]
	r := t.newInner(len(n.keys) - mid - 1)
	copy(r.keys, n.keys[mid+1:])
	copy(r.children, n.children[mid+1:])
	n.keys = n.keys[:mid]
	clear(n.children[mid+1:])
	n.children = n.children[:mid+1]
	return up, r, added
}

// write returns the node of leaf j of the loaded range, made at the leaf's
// first write: it takes over the leaf's line and holds the keys and RIDs the
// loader gave it, in arrays cut at the most a leaf holds before it splits,
// as a split's right half's are, so the insert that wrote it does not regrow
// them. A leaf keeps its node for good.
func (t *BTree) write(j int) *bnode {
	if n := t.leaf(j); n != nil {
		return n
	}
	first := int64(j) * t.per
	n := t.newNode()
	n.line, n.leaf, n.succ = t.leaves[j].line, true, j+1
	n.keys = t.keys.cut(int(min(t.per, t.loaded-first)), t.order+1)
	n.rids = t.rids.cut(len(n.keys), t.order+1)
	for i := range n.keys {
		k := first + int64(i)
		n.keys[i], n.rids[i] = k, t.locate(k)
	}
	t.written = append(t.written, n)
	t.leaves[j].node = uint32(len(t.written))
	return n
}

// explicate gives a computed node, which a walk for key reached, the arrays
// a load with explicit leaves would have built for it: as keys the first
// keys of its leaves but the first, and a nil child (a leaf of the loaded
// range) for each, cut at the most a node holds before it splits. It is
// level 1's ⌊clamp(key)/span⌋-th node, p, and its leaves are the fan (the
// last node's maybe fewer) from p·fan.
func (t *BTree) explicate(n *bnode, key int64) {
	p, _ := bits.Mul64(t.clamp(key), t.flat[1].recip)
	fan := int(t.per) + 1
	a := int(p) * fan
	width := min(fan, len(t.leaves)-a)
	n.keys = t.keys.cut(width-1, t.order+1)
	n.children = t.kids.cut(width, t.order+2)
	for i := range n.keys {
		n.keys[i] = int64(a+i+1) * t.per
	}
}

// newInner returns an inner node of nkeys keys and nkeys+1 children, its
// arrays cut at the most a node holds before it splits. A split gives its
// right half fresh arrays of that capacity, and its left half keeps the
// arrays it had, so neither regrows as inserts refill it.
func (t *BTree) newInner(nkeys int) *bnode {
	n := t.newNode()
	n.keys = t.keys.cut(nkeys, t.order+1)
	n.children = t.kids.cut(nkeys+1, t.order+2)
	return n
}

// newNode returns a zero node from the tree's node slab.
func (t *BTree) newNode() *bnode { return &t.nodes.cut(1, 1)[0] }

// room returns a node's array with room for one more entry: as it is, or
// moved to a piece of s at full capacity when it is full — a bulk-loaded
// node whose arrays were cut to its length, or an empty root's.
func room[T any](s *slab[T], a []T, size int) []T {
	if len(a) < cap(a) {
		return a
	}
	b := s.cut(len(a), size)
	copy(b, a)
	return b
}

// Delete removes key, reporting whether it existed. Leaves are not
// rebalanced (lazy deletion).
func (t *BTree) Delete(ctx *exec.Ctx, key int64) bool {
	t.computed = false
	n, j := t.walk(ctx, key)
	if n == nil {
		n = t.write(j)
	}
	t.touch(ctx, &n.line, true)
	i := lowerBound(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.rids = append(n.rids[:i], n.rids[i+1:]...)
	t.size--
	return true
}

// Range calls fn for every key in [lo, hi] in ascending order until fn
// returns false.
func (t *BTree) Range(ctx *exec.Ctx, lo, hi int64, fn func(key int64, rid RID) bool) {
	n, j := t.walk(ctx, lo)
	for {
		if n == nil {
			t.touch(ctx, &t.leaves[j].line, false)
			// Bounds are read once, as range reads the slice header once.
			k, end := max(int64(j)*t.per, lo), min(int64(j+1)*t.per, t.loaded)
			for ; k < end; k++ {
				if k > hi || !fn(k, t.locate(k)) {
					return
				}
			}
			j++
		} else {
			t.touch(ctx, &n.line, false)
			for i, k := range n.keys {
				if k < lo {
					continue
				}
				if k > hi {
					return
				}
				if !fn(k, n.rids[i]) {
					return
				}
			}
			if n.next != nil {
				n = n.next
				continue
			}
			j = n.succ
		}
		if j >= len(t.leaves) {
			return
		}
		n = t.leaf(j)
	}
}

// BulkLoadRange bulk-loads the key range [0, n), n < 2³² — the common case
// of loading a freshly partitioned table — as a range-loaded tree (see
// BTree): a line per leaf, a node without arrays per fan of them, and one
// slab of nodes plus one key and one child array per level above, where a
// 240K-row partition would otherwise allocate, fill and then miss on
// megabytes of sequential keys per instance. rid must be a pure function of
// the key; the tree keeps it and calls it whenever a leaf of the range is
// probed, scanned or written. Until the first Insert or Delete, Search
// computes its path (computedLeaf).
func (t *BTree) BulkLoadRange(n int64, rid func(key int64) RID, fill float64) {
	if uint64(n) >= 1<<32 {
		panic("storage: BulkLoadRange of a negative count or 2³² keys or more")
	}
	per := leafKeys(t.order, fill)
	t.locate, t.loaded, t.per, t.size = rid, n, per, int(n)
	t.flat, t.written, t.leaves = [maxFlatLevels]flatLevel{}, nil, nil
	t.root, t.height, t.computed = nil, 1, n > 0
	if n == 0 {
		return
	}
	t.leaves = make([]leafLine, (n+per-1)/per)
	fan := per + 1
	if len(t.leaves) > 1 {
		lowest := make([]bnode, (int64(len(t.leaves))+fan-1)/fan)
		t.flat[1].inner = lowest
		t.root, t.height = &lowest[0], 2
		t.buildInner(lowest, per*fan, func(pos int64) int64 { return pos })
	}
	// Room for one written leaf under each computed node, so the writes a
	// window makes — appends write a range's last leaf — never grow it.
	t.written = make([]*bnode, 0, max(len(t.flat[1].inner), 1))
	// Every level but the root has more than one node, so its span is
	// below n: no product here overflows, and the last one is unused.
	span := uint64(per)
	for l := range t.height - 1 {
		t.flat[l].recip = reciprocal(span)
		span *= uint64(fan)
	}
}

// leafKeys returns how many keys a bulk load puts in a leaf: fill of the
// order (0 < fill ≤ 1, else 0.9), and at least two, so that a leaf's span
// has a reciprocal (⌈2⁶⁴/1⌉ does not fit a word).
func leafKeys(order int, fill float64) int64 {
	if fill <= 0 || fill > 1 {
		fill = 0.9
	}
	return max(int64(float64(order)*fill), 2)
}

// buildInner builds the inner levels above below, a level whose node i
// covers the keys from position i·span on, key(pos) being the key at a
// position, and records each in flat. Parent p takes children [p·fan,
// (p+1)·fan) of the level below, and the first keys of every child but its
// first, which precede it p·(fan−1) deep in the level's key array.
//
// Each level is one slab of nodes plus one backing array for all its
// children and one for all its keys. A node's share of a backing array is a
// full slice expression, so its cap equals its len as an exactly sized
// array would: the first insert into it reallocates, and never writes into
// its neighbour's share.
func (t *BTree) buildInner(below []bnode, span int64, key func(pos int64) int64) {
	fan := int(t.per) + 1
	for width := len(below); width > 1; width = len(below) {
		parents := make([]bnode, (width+fan-1)/fan)
		children := make([]*bnode, width)
		keys := make([]int64, width-len(parents))
		for j := range children {
			children[j] = &below[j]
		}
		for p := range parents {
			a, b := p*fan, min((p+1)*fan, width)
			parent := &parents[p]
			parent.children = children[a:b:b]
			parent.keys = keys[a-p : b-p-1 : b-p-1]
			for j := range parent.keys {
				parent.keys[j] = key(int64(a+j+1) * span)
			}
		}
		t.flat[t.height].inner = parents
		below, span = parents, span*int64(fan)
		t.root = &below[0]
		t.height++
	}
}

// reciprocal returns ⌈2⁶⁴/d⌉ for 2 ≤ d: (2⁶⁴−1)/d rounds down to ⌊2⁶⁴/d⌋ but
// for a power of two, where it is one less, so one more is the ceiling.
func reciprocal(d uint64) uint64 { return ^uint64(0)/d + 1 }

// CheckInvariants verifies structural invariants: sorted keys, uniform leaf
// depth equal to the height, separator correctness, child counts, and a
// leaf chain that visits the leaves the tree holds, in order, and exactly
// size keys. A leaf of the loaded range is checked as it stands, never
// written: a nil child must cover the keys of one leaf, a computed node must
// be the loaded one its keys reach, the written leaves' indexes must map
// leaves to nodes one to one, and a tree on the computed path must have
// none. It returns a description of the first violation, or "".
func (t *BTree) CheckInvariants() string {
	seen := make([]bool, len(t.written))
	for _, ll := range t.leaves {
		switch w := int(ll.node); {
		case w == 0:
		case w > len(t.written):
			return "written index out of range"
		case seen[w-1]:
			return "two leaves share a written node"
		default:
			seen[w-1] = true
		}
	}
	for _, s := range seen {
		if !s {
			return "a written node no leaf indexes"
		}
	}
	if t.computed && len(t.written) > 0 {
		return "computed path on a written tree"
	}

	// A leaf in key order: its node, or nil and its number.
	type leafRef struct {
		n *bnode
		j int
	}
	var order []leafRef
	leafDepth := 0
	var prevLeafMax *int64
	// rangeLeaf returns the leaf of the loaded range that a nil child with
	// bounds [lo, hi) stands for: every key in them must reach one leaf.
	rangeLeaf := func(lo, hi *int64) (int, string) {
		if len(t.leaves) == 0 || t.locate == nil {
			return 0, "leaf of a loaded range in a tree without one"
		}
		first, last := int64(0), t.loaded-1
		if lo != nil {
			first = *lo
		}
		if hi != nil {
			last = *hi - 1
		}
		if j := t.leafNo(first); t.leafNo(last) == j {
			return j, ""
		}
		return 0, "a leaf of the loaded range under bounds that span more than one"
	}
	var visit func(n *bnode, depth int, lo, hi *int64) string
	visit = func(n *bnode, depth int, lo, hi *int64) string {
		j := -1
		if n == nil {
			var msg string
			if j, msg = rangeLeaf(lo, hi); msg != "" {
				return msg
			}
			if n = t.leaf(j); n != nil && !n.leaf {
				return "a written leaf's node is an inner node"
			}
		}
		// The smallest and largest key bound every key of the node.
		var minKey, maxKey int64
		any := false
		if n == nil {
			minKey = int64(j) * t.per
			maxKey = min(minKey+t.per, t.loaded) - 1
			any = true
		} else {
			for i := 1; i < len(n.keys); i++ {
				if n.keys[i-1] >= n.keys[i] {
					return "keys out of order"
				}
			}
			if any = len(n.keys) > 0; any {
				minKey, maxKey = n.keys[0], n.keys[len(n.keys)-1]
			}
		}
		if any {
			if lo != nil && minKey < *lo {
				return "key below subtree bound"
			}
			if hi != nil && maxKey >= *hi {
				return "key above subtree bound"
			}
		}
		if n == nil || n.leaf {
			if leafDepth == 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				return "leaves at different depths"
			}
			if n != nil && len(n.keys) != len(n.rids) {
				return "leaf keys/rids mismatch"
			}
			if any {
				if prevLeafMax != nil && minKey <= *prevLeafMax {
					return "leaf chain out of order"
				}
				prevLeafMax = &maxKey
			}
			order = append(order, leafRef{n, j})
			return ""
		}
		if n.children == nil {
			// A computed node: the leaves from its index times fan.
			if len(t.flat[1].inner) == 0 {
				return "computed node in a tree without a loaded range"
			}
			fan := int(t.per) + 1
			a := 0
			if lo != nil {
				a = t.leafNo(*lo)
			}
			if a%fan != 0 || a/fan >= len(t.flat[1].inner) || n != &t.flat[1].inner[a/fan] {
				return "computed node is not the loaded node its keys reach"
			}
			width := min(fan, len(t.leaves)-a)
			for i := range width {
				clo, chi := lo, hi
				if i > 0 {
					k := int64(a+i) * t.per
					clo = &k
				}
				if i < width-1 {
					k := int64(a+i+1) * t.per
					chi = &k
				}
				if msg := visit(nil, depth+1, clo, chi); msg != "" {
					return msg
				}
			}
			return ""
		}
		if len(n.children) != len(n.keys)+1 {
			return "inner child count mismatch"
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			if msg := visit(c, depth+1, clo, chi); msg != "" {
				return msg
			}
		}
		return ""
	}
	if msg := visit(t.top(), 1, nil, nil); msg != "" {
		return msg
	}
	if leafDepth != t.height {
		return "height disagrees with the leaves' depth"
	}

	// The leaf chain must visit the same leaves and hold exactly size keys.
	count := 0
	cur := order[0]
	for i := 0; ; i++ {
		if i == len(order) {
			return "leaf chain longer than the tree"
		}
		if o := order[i]; cur.n != o.n || (cur.n == nil && cur.j != o.j) {
			return "leaf chain disagrees with the tree"
		}
		next := cur.j + 1
		if cur.n != nil {
			count += len(cur.n.keys)
			if cur.n.next != nil {
				cur = leafRef{cur.n.next, -1}
				continue
			}
			next = cur.n.succ
		} else {
			count += int(min(int64(next)*t.per, t.loaded) - int64(cur.j)*t.per)
		}
		if next >= len(t.leaves) {
			if i+1 != len(order) {
				return "leaf chain shorter than the tree"
			}
			break
		}
		cur = leafRef{t.leaf(next), next}
	}
	if count != t.size {
		return "leaf chain count disagrees with size"
	}
	return ""
}
