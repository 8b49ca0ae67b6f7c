// Package workload generates the paper's benchmark inputs: the read/update
// N-row microbenchmarks with controlled multisite fraction and Zipfian skew
// (Sections 5.2, 7.1, 7.3), and the TPC-C transaction mix — NewOrder,
// Payment, OrderStatus, Delivery, StockLevel over the nine-table schema,
// partitioned by warehouse (Figures 3, 7, and the paper's TPC-C charts).
// All generators are deterministic given a seed.
package workload

import (
	"math"
	"math/rand"
)

// Zipf samples ranks in [0, n) with P(k) proportional to 1/(k+1)^s, using
// the Gray et al. rejection-free inversion method popularized by YCSB.
// s = 0 degenerates to uniform; s = 1 is the classic heavy skew where the
// paper's fine-grained configurations collapse.
type Zipf struct {
	n     int64
	s     float64
	bound int64 // s = 0: the largest Int63 draw Int63n(n) keeps
	zetan float64
	theta float64
	alpha float64
	eta   float64
}

// NewZipf builds a sampler over [0, n).
func NewZipf(n int64, s float64) *Zipf {
	if n < 1 {
		panic("workload: zipf over empty range")
	}
	z := &Zipf{n: n, s: s, theta: s}
	if s == 0 {
		z.bound = rejectAbove(n)
		return z
	}
	z.zetan = zeta(n, s)
	z.alpha = 1 / (1 - s)
	zeta2 := zeta(2, s)
	z.eta = (1 - math.Pow(2/float64(n), 1-s)) / (1 - zeta2/z.zetan)
	return z
}

func zeta(n int64, s float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
	}
	return sum
}

// N returns the range size.
func (z *Zipf) N() int64 { return z.n }

// S returns the skew parameter.
func (z *Zipf) S() float64 { return z.s }

// Sample draws one rank using rng. Rank 0 is the hottest key.
func (z *Zipf) Sample(rng *rand.Rand) int64 {
	if z.s == 0 {
		return rng.Int63n(z.n)
	}
	return z.skewed(rng.Float64())
}

// sample is Sample on a request stream's generator: the same draws, with a
// uniform range's rejection bound taken from the sampler, not recomputed.
func (z *Zipf) sample(src *source) int64 {
	if z.s == 0 {
		return src.below(z.n, z.bound)
	}
	return z.skewed(src.Float64())
}

// skewed inverts the skewed distribution at u in [0, 1).
func (z *Zipf) skewed(u float64) int64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
