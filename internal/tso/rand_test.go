package tso

import (
	"math"
	"math/rand"
	"testing"
)

// TestLazySourceMatchesMathRand requires the lazily seeded source to
// yield math/rand's stream exactly, through every rand.Rand method the
// repository draws with, across two reseeds: one while some register
// words are still unread, one after all of them have been read. The
// seeds cover math/rand's normalization cases: zero, negative, the LCG
// modulus and seeds past it.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, -7919, lcgMod, lcgMod + 5, math.MaxInt64, math.MinInt64, 0x6A09E667F3BCC909}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(NewRandSource(seed))
		for i := 0; i < 5000; i++ {
			if i == 100 || i == 2500 {
				want.Seed(seed ^ int64(i))
				got.Seed(seed ^ int64(i))
			}
			var w, g any
			switch i % 4 {
			case 0:
				w, g = want.Int63(), got.Int63()
			case 1:
				w, g = want.Uint64(), got.Uint64()
			case 2:
				n := 1 + i%97
				if i%8 == 6 {
					n += 1 << 40 // Int63n rather than Int31n
				}
				w, g = want.Intn(n), got.Intn(n)
			case 3:
				w, g = want.Float64(), got.Float64()
			}
			if w != g {
				t.Fatalf("seed %d, draw %d: got %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}
