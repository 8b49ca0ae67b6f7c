package workload

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (rngSource:
// x_k = x_{k-607} + x_{k-273} mod 2⁶⁴), copied so a request stream can hold
// it by value and call concrete methods (Int63, Float64 and the rejection
// loop of Int63n inline), and so seeding can skip the standard library's
// serial warm-up. A source seeded with s draws what
// rand.New(rand.NewSource(s)) draws, value for value
// (TestSourceMatchesMathRand), so every request stream is unchanged.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	// lehmerA is the multiplier of math/rand's seeding generator,
	// x_{k+1} = lehmerA·x_k mod int32max.
	lehmerA = 48271
	// seedSkip is how many Lehmer steps seeding discards: word i is built
	// from steps seedSkip+1+3i, seedSkip+2+3i and seedSkip+3+3i.
	seedSkip = 20
)

var (
	// seedPow[i][j] = lehmerA^(seedSkip+1+3i+j) mod int32max, so each
	// Lehmer step seeding needs is one multiplication away from the seed
	// rather than at the end of a serial walk of up to 1,841 steps.
	seedPow [rngLen][3]uint64
	// rngCooked is math/rand's table of the same name, XORed into the
	// Lehmer words at seeding. init recovers it from the standard library.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for range seedSkip {
		p = p * lehmerA % int32max
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			p = p * lehmerA % int32max
			seedPow[i][j] = p
		}
	}

	// The standard generator's first 607 draws overwrite each slot of its
	// register once and bring tap and feed back to where seeding left them.
	// So a register holding those draws, with every draw undone
	// (vec[feed] -= vec[tap], newest first), is the seeded register, and
	// XORing out the Lehmer words — what seed computes while rngCooked is
	// still zero — leaves the cooked table.
	const seed = 1
	std := rand.NewSource(seed).(rand.Source64)
	var s, lehmer source
	lehmer.seed(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	for range rngLen {
		s.step()
		s.vec[s.feed] = int64(std.Uint64())
	}
	for range rngLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
	for i := range rngCooked {
		rngCooked[i] = s.vec[i] ^ lehmer.vec[i]
	}
}

// seed sets the state rand.NewSource(seed) starts from.
func (s *source) seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		w := &seedPow[i]
		u := int64(mod31(w[0]*x))<<40 ^ int64(mod31(w[1]*x))<<20 ^ int64(mod31(w[2]*x))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// mod31 is v mod int32max for v < int32max², by folding: 2³¹ ≡ 1.
func mod31(v uint64) uint64 {
	r := v&int32max + v>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// step moves tap and feed one slot back, as every draw does first.
func (s *source) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 is rngSource.Uint64.
func (s *source) Uint64() uint64 {
	s.step()
	f := &s.vec[s.feed]
	*f += s.vec[s.tap]
	return uint64(*f)
}

// Int63 is rand.Rand.Int63.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Float64 is rand.Rand.Float64, resampling the rare draw that rounds to 1.
func (s *source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Int63n is rand.Rand.Int63n. Its power-of-two shortcut, a mask, is left
// out: below draws the same for those n (see below).
func (s *source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	return s.below(n, rejectAbove(n))
}

// rejectAbove is the largest draw Int63n(n) keeps: every value above it
// belongs to the last, partial copy of [0, n) in [0, 2⁶³).
func rejectAbove(n int64) int64 { return int64(1<<63 - 1 - (1<<63)%uint64(n)) }

// below returns Int63n(n) given max = rejectAbove(n). For a power of two, max
// rejects nothing and v % n is the mask, so it agrees with Int63n for every
// n > 0.
func (s *source) below(n, max int64) int64 {
	for {
		if v := s.Int63(); v <= max {
			return v % n
		}
	}
}
