package tso

import "math/rand"

// The chaos scheduler and the work-stealing pools draw from math/rand's
// additive lagged-Fibonacci generator, and every simulated result depends
// on its exact stream. Seeding that generator steps an LCG 1841 times to
// fill all 607 words of its feedback register (microseconds), while a
// short chaos run or a pool's victim picks draw a few dozen numbers.
// lazySource yields the same stream but computes each register word the
// first time a draw reads it, from a closed form of the LCG.
const (
	rngLen  = 607 // feedback register length
	rngTap  = 273 // lag of the second tap
	rngMask = 1<<63 - 1

	// The seeding LCG: x ← lcgMul·x mod lcgMod, a Lehmer generator.
	lcgMod = 1<<31 - 1
	lcgMul = 48271

	// lcgSkip is the number of LCG steps math/rand discards before the
	// first register word.
	lcgSkip = 20
)

var (
	// lcgPow[j] is lcgMul^(lcgSkip+1+j) mod lcgMod: register word i is
	// built from LCG states lcgSkip+1+3i .. lcgSkip+3+3i, so state k of
	// seed s is s·lcgPow[k-lcgSkip-1] mod lcgMod.
	lcgPow [3 * rngLen]uint64

	// rngCooked is the constant math/rand xors into each register word
	// (its rngCooked table), derived at init from the library's outputs.
	rngCooked [rngLen]uint64
)

func init() {
	x := uint64(1)
	for k := 0; k <= lcgSkip; k++ {
		x = x * lcgMul % lcgMod
	}
	for j := range lcgPow {
		lcgPow[j] = x
		x = x * lcgMul % lcgMod
	}
	deriveCooked()
}

// deriveCooked recovers rngCooked from rngLen outputs of math/rand's own
// source. Each draw adds the tap word into the feed word and returns the
// sum, and over rngLen draws the feed index visits every word once, so
// after them the register holds each draw's output at its feed index.
// Undoing the draws in reverse order (subtracting the unchanged tap word
// from the feed word) rebuilds the freshly seeded register; xoring out
// the seed's LCG part of each word leaves the constant.
func deriveCooked() {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var vec [rngLen]uint64
	tap, feed := 0, rngLen-rngTap
	for range vec {
		tap, feed = prevIndex(tap), prevIndex(feed)
		vec[feed] = src.Uint64()
	}
	for range vec {
		vec[feed] -= vec[tap]
		tap, feed = nextIndex(tap), nextIndex(feed)
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ lcgWord(seed, i)
	}
}

// prevIndex and nextIndex step a register index the way a draw does
// (downward, wrapping) and back.
func prevIndex(i int) int {
	if i == 0 {
		return rngLen - 1
	}
	return i - 1
}

func nextIndex(i int) int {
	if i == rngLen-1 {
		return 0
	}
	return i + 1
}

// lcgWord is the LCG part of register word i for a normalized seed s:
// three consecutive LCG states, shifted into one 64-bit word.
func lcgWord(s uint64, i int) uint64 {
	p := lcgPow[3*i : 3*i+3]
	return s*p[0]%lcgMod<<40 ^ s*p[1]%lcgMod<<20 ^ s*p[2]%lcgMod
}

// lazySource is a rand.Source64 with math/rand's exact stream for every
// seed. Seed only records the seed and rewinds the indices; each
// register word is filled from lcgWord the first time a draw reads it.
// Which draws read a never-read word is fixed: draw k (counting from 1
// after a Seed) reads the feed word (rngLen-rngTap-k) mod rngLen and the
// tap word rngLen-k. The feed words of draws 1..rngLen-rngTap are
// 333..0, none read before; the tap words of draws 1..rngTap are
// 606..334, none read before; every later read finds a word some
// earlier draw read (and may have rewritten). So the first
// rngLen-rngTap draws fill their feed word and the first rngTap also
// their tap word, and after that a draw costs what math/rand's does.
type lazySource struct {
	tap, feed int
	drawn     int    // draws since Seed, counted up to rngLen-rngTap
	seed      uint64 // normalized seed, in [1, lcgMod)
	vec       [rngLen]uint64
}

// NewRandSource returns a source that yields exactly the stream of
// math/rand.NewSource(seed), but whose seeding costs nanoseconds instead
// of microseconds. The machine's chaos scheduler and the sched package's
// per-worker RNGs use it.
func NewRandSource(seed int64) rand.Source64 {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed resets the stream to that of math/rand.NewSource(seed).
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.drawn = 0
	// math/rand's seed normalization.
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < rngLen-rngTap {
		s.drawn++
		s.vec[s.feed] = lcgWord(s.seed, s.feed) ^ rngCooked[s.feed]
		if s.drawn <= rngTap {
			s.vec[s.tap] = lcgWord(s.seed, s.tap) ^ rngCooked[s.tap]
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}
