package storage

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func ridFor(k int64) RID {
	return RID{Page: PageID{Table: 1, No: k / 32}, Slot: uint16(k % 32)}
}

func TestBTreeInsertSearch(t *testing.T) {
	bt := NewBTree(8) // small order exercises splits
	for k := int64(0); k < 1000; k++ {
		if !bt.Insert(nil, k, ridFor(k)) {
			t.Fatalf("insert %d reported duplicate", k)
		}
	}
	if bt.Size() != 1000 {
		t.Fatalf("size = %d, want 1000", bt.Size())
	}
	if bt.Height() < 3 {
		t.Errorf("height = %d; expected >= 3 with order 8", bt.Height())
	}
	for k := int64(0); k < 1000; k++ {
		rid, ok := bt.Search(nil, k)
		if !ok || rid != ridFor(k) {
			t.Fatalf("search %d = %+v,%v", k, rid, ok)
		}
	}
	if _, ok := bt.Search(nil, 1000); ok {
		t.Error("found absent key")
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Errorf("invariant violation: %s", msg)
	}
}

func TestBTreeInsertDescendingAndRandom(t *testing.T) {
	for name, keys := range map[string][]int64{
		"descending": genKeys(500, func(i int) int64 { return int64(499 - i) }),
		"random":     shuffled(500, 42),
	} {
		bt := NewBTree(6)
		for _, k := range keys {
			bt.Insert(nil, k, ridFor(k))
		}
		if msg := bt.CheckInvariants(); msg != "" {
			t.Errorf("%s: invariant violation: %s", name, msg)
		}
		for _, k := range keys {
			if _, ok := bt.Search(nil, k); !ok {
				t.Errorf("%s: key %d missing", name, k)
			}
		}
	}
}

func genKeys(n int, f func(int) int64) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = f(i)
	}
	return ks
}

func shuffled(n int, seed int64) []int64 {
	ks := genKeys(n, func(i int) int64 { return int64(i) })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

func TestBTreeDuplicateInsertReplaces(t *testing.T) {
	bt := NewBTree(8)
	bt.Insert(nil, 7, ridFor(7))
	if bt.Insert(nil, 7, ridFor(8)) {
		t.Error("duplicate insert reported as new")
	}
	rid, _ := bt.Search(nil, 7)
	if rid != ridFor(8) {
		t.Error("duplicate insert did not replace RID")
	}
	if bt.Size() != 1 {
		t.Errorf("size = %d, want 1", bt.Size())
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree(8)
	for k := int64(0); k < 200; k++ {
		bt.Insert(nil, k, ridFor(k))
	}
	for k := int64(0); k < 200; k += 2 {
		if !bt.Delete(nil, k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if bt.Delete(nil, 0) {
		t.Error("double delete succeeded")
	}
	for k := int64(0); k < 200; k++ {
		_, ok := bt.Search(nil, k)
		if want := k%2 == 1; ok != want {
			t.Errorf("key %d present=%v, want %v", k, ok, want)
		}
	}
	if bt.Size() != 100 {
		t.Errorf("size = %d, want 100", bt.Size())
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Errorf("invariant violation after deletes: %s", msg)
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree(8)
	for k := int64(0); k < 100; k += 2 { // even keys only
		bt.Insert(nil, k, ridFor(k))
	}
	var got []int64
	bt.Range(nil, 11, 31, func(k int64, _ RID) bool {
		got = append(got, k)
		return true
	})
	want := []int64{12, 14, 16, 18, 20, 22, 24, 26, 28, 30}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	bt.Range(nil, 0, 99, func(int64, RID) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestBTreeBulkLoad(t *testing.T) {
	bt := NewBTree(16)
	keys := genKeys(10000, func(i int) int64 { return int64(i * 3) })
	bt.BulkLoad(keys, ridFor, 0.9)
	if bt.Size() != 10000 {
		t.Fatalf("size = %d", bt.Size())
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violation after bulk load: %s", msg)
	}
	for _, k := range []int64{0, 3, 29997, 14999*2 + 1} {
		_, ok := bt.Search(nil, k)
		if want := k%3 == 0 && k <= 29997; ok != want {
			t.Errorf("key %d present=%v want %v", k, ok, want)
		}
	}
	// Insert after bulk load still works.
	bt.Insert(nil, 1, ridFor(1))
	if _, ok := bt.Search(nil, 1); !ok {
		t.Error("insert after bulk load lost")
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violation after post-load insert: %s", msg)
	}
}

func TestBTreeBulkLoadEmpty(t *testing.T) {
	bt := NewBTree(16)
	bt.BulkLoad(nil, ridFor, 0.9)
	if bt.Size() != 0 || bt.Height() != 1 {
		t.Error("empty bulk load wrong shape")
	}
	if _, ok := bt.Search(nil, 0); ok {
		t.Error("empty tree found a key")
	}
}

// TestBTreeQuickProperty: random operation sequences preserve map semantics
// and structural invariants.
func TestBTreeQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bt := NewBTree(5)
		model := map[int64]RID{}
		for op := 0; op < 500; op++ {
			k := int64(rng.Intn(200))
			switch rng.Intn(3) {
			case 0:
				rid := ridFor(int64(rng.Intn(1000)))
				bt.Insert(nil, k, rid)
				model[k] = rid
			case 1:
				delete(model, k)
				bt.Delete(nil, k)
			case 2:
				rid, ok := bt.Search(nil, k)
				wantRID, wantOK := model[k]
				if ok != wantOK || (ok && rid != wantRID) {
					return false
				}
			}
		}
		if bt.Size() != len(model) {
			return false
		}
		return bt.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// nodeCount returns the number of nodes in the subtree rooted at n.
func nodeCount(n *bnode) int {
	c := 1
	for _, ch := range n.children {
		c += nodeCount(ch)
	}
	return c
}

// BenchmarkBTreeInsertAppend appends ascending keys to an index, as TPC-C's
// inserts do: every insert lands in the rightmost leaf, and every order/2 of
// them split it. It reports the heap objects allocated per split
// (allocs/split; CI gates it at 3): a split allocates its new node and that
// node's two arrays once, at full capacity, and the left half keeps its
// arrays, so no insert regrows one. The count starts after the tree's first
// split, once the root leaf, which NewBTree makes empty, has grown to full.
func BenchmarkBTreeInsertAppend(b *testing.B) {
	bt := NewBTree(DefaultBTreeOrder)
	key := int64(0)
	for bt.Height() == 1 {
		bt.Insert(nil, key, ridFor(key))
		key++
	}
	nodes := nodeCount(bt.root)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		bt.Insert(nil, key, ridFor(key))
		key++
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if splits := nodeCount(bt.root) - nodes; splits > 0 {
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(splits), "allocs/split")
	}
}
