package storage

import "islands/internal/exec"

// FlushAll writes back every dirty page. As with a dirty victim, the images
// reach the backing store before any virtual time passes, and the device
// writes are charged afterwards: a page is not pinned while its write is
// charged, so another thread may evict it and its struct serve another page
// meanwhile.
func (bp *BufferPool) FlushAll(ctx *exec.Ctx) {
	writes := 0
	for _, f := range bp.ring {
		if p := f.page; p != nil && p.Dirty {
			bp.DirtyWriteBacks++
			bp.store.WriteBack(p)
			p.Dirty = false
			writes++
		}
	}
	prev := ctx.Bucket(exec.BIO)
	for ; writes > 0; writes-- {
		bp.disk.Write(ctx)
	}
	ctx.Bucket(prev)
}

// BulkLoad builds the tree from keys that must be sorted ascending, at the
// leaf fill BulkLoadRange takes, with every leaf and inner node explicit:
// the reference a range-loaded tree is tested against. Its tree has the
// shape BulkLoadRange gives the same keys, and it always walks.
func (t *BTree) BulkLoad(keys []int64, rid func(key int64) RID, fill float64) {
	per, n := leafKeys(t.order, fill), int64(len(keys))
	t.locate, t.loaded, t.per, t.size = nil, 0, per, len(keys)
	t.flat, t.written = [maxFlatLevels]flatLevel{}, nil
	t.root, t.height, t.leaves, t.computed = nil, 1, nil, false
	if n == 0 {
		return
	}
	leaves := make([]bnode, (n+per-1)/per)
	for j := range leaves {
		leaf, i := &leaves[j], int64(j)*per
		end := min(i+per, n)
		leaf.leaf = true
		leaf.keys = make([]int64, end-i)
		leaf.rids = make([]RID, end-i)
		copy(leaf.keys, keys[i:end])
		for x, k := range leaf.keys {
			leaf.rids[x] = rid(k)
		}
		if j > 0 {
			leaves[j-1].next = leaf
		}
	}
	t.root = &leaves[0]
	t.buildInner(leaves, per, func(pos int64) int64 { return keys[pos] })
}
