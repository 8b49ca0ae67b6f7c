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
// A leaf has two forms. BulkLoadRange builds dense leaves: the keys are
// first..first+count-1 and the RID of key k is locate(k), so the leaf stores
// neither array and a probe of it is arithmetic — no load beyond the node
// itself. A dense leaf is exactly the explicit leaf BulkLoad would have built
// over the same keys; the first Insert or Delete that reaches one expands it
// into that explicit leaf, for good, and then runs the ordinary code, so tree
// shape, split points, node visits and charges never depend on the form.
type BTree struct {
	order  int
	root   *bnode
	height int
	size   int
	locate func(key int64) RID // BulkLoadRange's rid function; resolves dense leaves
}

// bnode's first fields are the ones a probe reads (the line is touched on
// every visit), so a visit to a dense leaf stays on one host cache line.
type bnode struct {
	line     mem.Line
	leaf     bool
	count    int64 // > 0: dense leaf of keys first..first+count-1, keys and rids nil
	first    int64
	keys     []int64
	children []*bnode // inner nodes
	rids     []RID    // explicit leaves
	next     *bnode   // leaf chain
}

func (n *bnode) dense() bool { return n.count > 0 }

// size returns the number of keys a leaf holds.
func (n *bnode) size() int {
	if n.dense() {
		return int(n.count)
	}
	return len(n.keys)
}

// expand turns a dense leaf into the explicit leaf it stands for, the keys
// and RIDs BulkLoad would have given it. Every mutation of a leaf calls it
// first; an explicit leaf is never made dense again. Its arrays are allocated
// once at the most a leaf holds before it splits, as a split's right half is,
// so the insert that expanded it does not reallocate them at once.
func (t *BTree) expand(n *bnode) {
	if !n.dense() {
		return
	}
	n.keys = make([]int64, n.count, t.order+1)
	n.rids = make([]RID, n.count, t.order+1)
	for i := range n.keys {
		k := n.first + int64(i)
		n.keys[i] = k
		n.rids[i] = t.locate(k)
	}
	n.count, n.first = 0, 0
}

// NewBTree returns an empty tree with the given order (max keys per node);
// order < 4 falls back to DefaultBTreeOrder.
func NewBTree(order int) *BTree {
	if order < 4 {
		order = DefaultBTreeOrder
	}
	return &BTree{order: order, root: &bnode{leaf: true}, height: 1}
}

// Size returns the number of keys.
func (t *BTree) Size() int { return t.size }

// Height returns the number of levels.
func (t *BTree) Height() int { return t.height }

// touch charges one node visit to ctx (nil ctx skips charging, for loads and
// tests).
func (t *BTree) touch(ctx *exec.Ctx, n *bnode, write bool) {
	if ctx == nil {
		return
	}
	ctx.Charge(CostBTreeLevelCPU)
	if write {
		ctx.WriteLine(&n.line)
	} else {
		ctx.ReadLine(&n.line)
	}
}

// Search returns the RID for key.
func (t *BTree) Search(ctx *exec.Ctx, key int64) (RID, bool) {
	n := t.root
	for !n.leaf {
		t.touch(ctx, n, false)
		n = n.children[childIndex(n.keys, key)]
	}
	t.touch(ctx, n, false)
	if n.dense() {
		if uint64(key-n.first) < uint64(n.count) {
			return t.locate(key), true
		}
		return RID{}, false
	}
	i := lowerBound(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.rids[i], true
	}
	return RID{}, false
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
	promoted, right, added := t.insert(ctx, t.root, key, rid)
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

func (t *BTree) insert(ctx *exec.Ctx, n *bnode, key int64, rid RID) (promoted int64, right *bnode, added bool) {
	if n.leaf {
		t.touch(ctx, n, true)
		t.expand(n)
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.rids[i] = rid
			return 0, nil, false
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.rids = append(n.rids, RID{})
		copy(n.rids[i+1:], n.rids[i:])
		n.rids[i] = rid
		if len(n.keys) <= t.order {
			return 0, nil, true
		}
		// As for inner nodes (newInner), the right half's arrays are
		// allocated once at full capacity and the left half keeps its own.
		mid := len(n.keys) / 2
		r := &bnode{leaf: true, next: n.next,
			keys: make([]int64, len(n.keys)-mid, t.order+1),
			rids: make([]RID, len(n.rids)-mid, t.order+1)}
		copy(r.keys, n.keys[mid:])
		copy(r.rids, n.rids[mid:])
		n.keys = n.keys[:mid]
		n.rids = n.rids[:mid]
		n.next = r
		return r.keys[0], r, true
	}

	t.touch(ctx, n, false)
	ci := childIndex(n.keys, key)
	promoted, right, added = t.insert(ctx, n.children[ci], key, rid)
	if right == nil {
		return 0, nil, added
	}
	t.touch(ctx, n, true)
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = promoted
	n.children = append(n.children, nil)
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

// newInner returns an inner node of nkeys keys and nkeys+1 children, its
// arrays allocated once at the most a node holds before it splits. A split
// gives its right half fresh arrays of that capacity, and its left half keeps
// the arrays it had, so neither reallocates as inserts refill it.
func (t *BTree) newInner(nkeys int) *bnode {
	return &bnode{
		keys:     make([]int64, nkeys, t.order+1),
		children: make([]*bnode, nkeys+1, t.order+2),
	}
}

// Delete removes key, reporting whether it existed. Leaves are not
// rebalanced (lazy deletion).
func (t *BTree) Delete(ctx *exec.Ctx, key int64) bool {
	n := t.root
	for !n.leaf {
		t.touch(ctx, n, false)
		n = n.children[childIndex(n.keys, key)]
	}
	t.touch(ctx, n, true)
	t.expand(n)
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
	n := t.root
	for !n.leaf {
		t.touch(ctx, n, false)
		n = n.children[childIndex(n.keys, lo)]
	}
	for n != nil {
		t.touch(ctx, n, false)
		if n.dense() {
			// Bounds are read once, as range reads the slice header once.
			k, end := n.first, n.first+n.count
			if k < lo {
				k = lo
			}
			for ; k < end; k++ {
				if k > hi || !fn(k, t.locate(k)) {
					return
				}
			}
			n = n.next
			continue
		}
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
		n = n.next
	}
}

// BulkLoad builds the tree from keys that MUST be sorted ascending, with the
// given leaf fill fraction (0 < fill <= 1, e.g. 0.9). It replaces the tree's
// contents and is the fast path for loading a partition at deployment time.
//
// Its leaves are explicit: it is the reference the dense form is tested
// against.
func (t *BTree) BulkLoad(keys []int64, rid func(key int64) RID, fill float64) {
	t.locate = nil
	t.bulkLoad(int64(len(keys)), fill, func(leaf *bnode, i, end int64) {
		leaf.keys = make([]int64, end-i)
		leaf.rids = make([]RID, end-i)
		copy(leaf.keys, keys[i:end])
		for j, k := range leaf.keys {
			leaf.rids[j] = rid(k)
		}
	})
}

// BulkLoadRange bulk-loads the dense key range [0, n) — the common case of
// loading a freshly partitioned table — as dense leaves (see BTree): one slab
// of nodes per level and no key or RID arrays, where a 240K-row partition
// would otherwise allocate, fill and then miss on megabytes of sequential
// keys per instance. rid must be a pure function of the key; the tree keeps
// it and calls it whenever a dense leaf is probed, scanned or expanded.
func (t *BTree) BulkLoadRange(n int64, rid func(key int64) RID, fill float64) {
	t.locate = rid
	t.bulkLoad(n, fill, func(leaf *bnode, i, end int64) {
		leaf.first, leaf.count = i, end-i
	})
}

// bulkLoad builds the tree over key positions [0, n); fillLeaf fills in the
// leaf for positions [i, end).
//
// Each level is cut from slabs: the leaves are one array of nodes, and an
// inner level is one array of nodes plus one backing array for all its
// children and one for all its keys. A node's share of a backing array is a
// full slice expression, so its cap equals its len as an exactly sized array
// would: the first insert into it reallocates, and never writes into its
// neighbour's share.
func (t *BTree) bulkLoad(n int64, fill float64, fillLeaf func(leaf *bnode, i, end int64)) {
	if fill <= 0 || fill > 1 {
		fill = 0.9
	}
	per := int64(float64(t.order) * fill)
	if per < 1 {
		per = 1
	}
	t.size = int(n)
	if n == 0 {
		t.root = &bnode{leaf: true}
		t.height = 1
		return
	}
	level := make([]bnode, (n+per-1)/per)
	for j := range level {
		leaf, i := &level[j], int64(j)*per
		leaf.leaf = true
		fillLeaf(leaf, i, min(i+per, n))
		if j > 0 {
			level[j-1].next = leaf
		}
	}
	// Build inner levels: parent p takes children [p*fan, (p+1)*fan) of the
	// level below, and the keys of every child but its first, which precede
	// it p*(fan-1) deep in the level's key array.
	t.height = 1
	fan := int(per) + 1
	for len(level) > 1 {
		parents := make([]bnode, (len(level)+fan-1)/fan)
		children := make([]*bnode, len(level))
		keys := make([]int64, len(level)-len(parents))
		for j := range level {
			children[j] = &level[j]
		}
		for p := range parents {
			a, b := p*fan, min((p+1)*fan, len(level))
			parent := &parents[p]
			parent.children = children[a:b:b]
			parent.keys = keys[a-p : b-p-1 : b-p-1]
			for j, c := range parent.children[1:] {
				parent.keys[j] = leftmostKey(c)
			}
		}
		level = parents
		t.height++
	}
	t.root = &level[0]
}

func leftmostKey(n *bnode) int64 {
	for !n.leaf {
		n = n.children[0]
	}
	if n.dense() {
		return n.first
	}
	return n.keys[0]
}

// CheckInvariants verifies structural invariants: sorted keys, uniform leaf
// depth, separator correctness, child counts and leaf-chain order. A dense
// leaf is validated as it stands, never expanded: its form must be consistent
// (a positive count, no explicit arrays, a locate function to resolve it) and
// its implied keys must obey the same bounds and chain order. It returns a
// description of the first violation, or "".
func (t *BTree) CheckInvariants() string {
	depths := map[int]bool{}
	var prevLeafMax *int64
	var walk func(n *bnode, depth int, lo, hi *int64) string
	walk = func(n *bnode, depth int, lo, hi *int64) string {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return "keys out of order"
			}
		}
		// The smallest and largest key bound every key of the node.
		minKey, maxKey, any := int64(0), int64(0), len(n.keys) > 0
		if any {
			minKey, maxKey = n.keys[0], n.keys[len(n.keys)-1]
		}
		if n.count != 0 {
			switch {
			case !n.leaf:
				return "inner node marked dense"
			case n.count < 0:
				return "dense leaf with negative count"
			case n.keys != nil || n.rids != nil:
				return "dense leaf carries explicit arrays"
			case t.locate == nil:
				return "dense leaf in a tree without a locate function"
			}
			minKey, maxKey, any = n.first, n.first+n.count-1, true
		}
		if any {
			if lo != nil && minKey < *lo {
				return "key below subtree bound"
			}
			if hi != nil && maxKey >= *hi {
				return "key above subtree bound"
			}
		}
		if n.leaf {
			depths[depth] = true
			if len(depths) > 1 {
				return "leaves at different depths"
			}
			if len(n.keys) != len(n.rids) {
				return "leaf keys/rids mismatch"
			}
			if any {
				if prevLeafMax != nil && minKey <= *prevLeafMax {
					return "leaf chain out of order"
				}
				prevLeafMax = &maxKey
			}
			return ""
		}
		if len(n.children) != len(n.keys)+1 {
			return "inner child count mismatch"
		}
		for i, c := range n.children {
			var clo, chi *int64
			if i > 0 {
				clo = &n.keys[i-1]
			} else {
				clo = lo
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			} else {
				chi = hi
			}
			if msg := walk(c, depth+1, clo, chi); msg != "" {
				return msg
			}
		}
		return ""
	}
	if msg := walk(t.root, 1, nil, nil); msg != "" {
		return msg
	}
	// Leaf chain must enumerate exactly size keys.
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	count := 0
	for ; n != nil; n = n.next {
		count += n.size()
	}
	if count != t.size {
		return "leaf chain count disagrees with size"
	}
	return ""
}
