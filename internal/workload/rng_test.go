package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand checks source draw for draw against the
// standard library it copies, from seeds at and around every case of the
// seed reduction (0, negative, the int32max multiples that map to the
// fallback seed, both int64 extremes) and from random ones, through Int63,
// Float64 and Int63n at a power of two, n = 1, a small n and one whose
// rejection bound throws away almost half of all draws.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, -1, 1, 89482311, int32max, 2 * int32max, int32max - 1, -int32max,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 1315423911, 2654435761}
	pick := rand.New(rand.NewSource(99))
	for len(seeds) < 64 {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	const draws = 10000
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		var got source
		got.seed(seed)
		for i := range draws {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
			}
		}
		for i := range draws {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
			}
		}
		for _, n := range []int64{1, 1 << 40, 10000, 1<<62 + 1} {
			for i := range draws {
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d: Int63n(%d) draw %d = %d, want %d", seed, n, i, g, w)
				}
			}
		}
	}
}

var sinkSource *source

// BenchmarkStreamSeed is what a request stream pays for its generator: one
// allocation and a seeding. rand.New(rand.NewSource(seed)) costs two
// allocations and 1,841 serial Lehmer steps.
func BenchmarkStreamSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := new(source)
		s.seed(int64(i) * 2654435761)
		sinkSource = s
	}
}
