package storage

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refLowerBound and refChildIndex are the B+tree's node searches as they
// were before they became branchless: plain binary searches whose compare
// is a branch. They are kept, verbatim but for the names, as the reference
// TestSearchMatchesReference drives side by side with lowerBound and
// childIndex.

// refLowerBound returns the first index whose key is >= key.
func refLowerBound(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// refChildIndex returns which child subtree of an inner node covers key:
// keys[i] is the smallest key of children[i+1] (first index with key > k).
func refChildIndex(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestSearchMatchesReference: on random strictly increasing key arrays of
// every length 0..2*order+1 — a node's keys, before and after a split, at
// the default order and the smallest — the branchless searches return the
// reference's index for every probe on a key, one either side of it, and
// beyond both ends. Arrays are drawn from four regimes: small dense keys,
// keys spread over all of int64, and keys crowded against math.MinInt64 and
// math.MaxInt64, where a subtraction-based compare would overflow.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func(regime int) int64 {
		switch regime {
		case 0:
			return rng.Int63n(400) - 200
		case 1:
			return int64(rng.Uint64())
		case 2:
			return math.MinInt64 + rng.Int63n(300)
		default:
			return math.MaxInt64 - rng.Int63n(300)
		}
	}
	check := func(keys []int64, probe int64) {
		t.Helper()
		if got, want := lowerBound(keys, probe), refLowerBound(keys, probe); got != want {
			t.Fatalf("lowerBound(%v, %d) = %d, reference %d", keys, probe, got, want)
		}
		if got, want := childIndex(keys, probe), refChildIndex(keys, probe); got != want {
			t.Fatalf("childIndex(%v, %d) = %d, reference %d", keys, probe, got, want)
		}
	}
	probes := 0
	for _, order := range []int{4, DefaultBTreeOrder} {
		for n := 0; n <= 2*order+1; n++ {
			for regime := 0; regime < 4; regime++ {
				for rep := 0; rep < 3; rep++ {
					seen := make(map[int64]bool, n)
					keys := make([]int64, 0, n)
					for len(keys) < n {
						k := draw(regime)
						if !seen[k] {
							seen[k] = true
							keys = append(keys, k)
						}
					}
					sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
					edge := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
					for _, p := range edge {
						check(keys, p)
						probes++
					}
					for _, k := range keys {
						for _, p := range []int64{k - 1, k, k + 1} { // wraps at the ends: still a probe outside
							check(keys, p)
							probes++
						}
					}
					for i := 0; i < 8; i++ {
						check(keys, draw(regime))
						probes++
					}
				}
			}
		}
	}
	t.Logf("%d probes", probes)
}
