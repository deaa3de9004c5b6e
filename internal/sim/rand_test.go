package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestNewRandMatchesMathRand pins NewRand to math/rand draw for draw. The
// seeds cover the edges of math/rand's seed reduction plus a few hundred
// random ones. Each takes 1,600 calls interleaving every rand.Rand method
// the simulator calls. A Rand.Seed at call 150 lands in the lazy phase and
// one at call 800 after the stream delegates to math/rand; each is
// followed by enough draws to cross the draw-273/274 handover again.
func TestNewRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, -(1<<31 - 1), 1 << 31,
		math.MinInt64, math.MaxInt64}
	gen := rand.New(rand.NewSource(14))
	for range 320 {
		s := gen.Int63() >> gen.Intn(63)
		if gen.Intn(2) == 0 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
		for call := 0; call < 1600; call++ {
			if call == 150 || call == 800 {
				reseed := seed ^ int64(call)<<20
				want.Seed(reseed)
				got.Seed(reseed)
			}
			var w, g uint64
			switch n := call*7919 + 1; call % 6 {
			case 0:
				w, g = uint64(want.Int63()), uint64(got.Int63())
			case 1:
				w, g = want.Uint64(), got.Uint64()
			case 2:
				m := int64(n) << (call % 32) // past 2³¹ too
				w, g = uint64(want.Int63n(m)), uint64(got.Int63n(m))
			case 3:
				w, g = uint64(want.Intn(n)), uint64(got.Intn(n))
			case 4:
				w, g = math.Float64bits(want.Float64()), math.Float64bits(got.Float64())
			case 5:
				w, g = math.Float64bits(want.ExpFloat64()), math.Float64bits(got.ExpFloat64())
			}
			if w != g {
				t.Fatalf("seed %d, call %d: NewRand gave %#x, math/rand %#x", seed, call, g, w)
			}
		}
	}
}

// TestSeedWordsMatchMathRand checks all 607 words NewRand seeds, not only
// the 546 its first 273 draws read: a register built from them and run as
// math/rand runs its own must give math/rand's stream.
func TestSeedWordsMatchMathRand(t *testing.T) {
	for _, seed := range []int64{1, 2, 89482311, 1<<31 - 2, 20261017} {
		var reg [regLen]uint64
		for i := range reg {
			reg[i] = word(i, uint64(seed))
		}
		want := rand.NewSource(seed).(rand.Source64)
		feed, tap := regFeed, 0
		for k := 1; k <= 3*regLen; k++ {
			feed, tap = (feed+regLen-1)%regLen, (tap+regLen-1)%regLen
			reg[feed] += reg[tap]
			if w := want.Uint64(); reg[feed] != w {
				t.Fatalf("seed %d, draw %d: register gave %#x, math/rand %#x", seed, k, reg[feed], w)
			}
		}
	}
}

// TestNewRandBuildsRegisterAtDraw274: a fresh stream's first 273 draws
// allocate nothing, and draw 274 makes one allocation, math/rand's
// register.
func TestNewRandBuildsRegisterAtDraw274(t *testing.T) {
	const runs = 20
	streams := make([]*rand.Rand, runs+1) // AllocsPerRun makes one warm-up call
	for i := range streams {
		streams[i] = NewRand(int64(i))
	}
	next := 0
	if a := testing.AllocsPerRun(runs, func() {
		for range regTap {
			streams[next].Uint64()
		}
		next++
	}); a != 0 {
		t.Errorf("draws 1–273 made %v allocations per stream, want 0", a)
	}
	next = 0
	if a := testing.AllocsPerRun(runs, func() {
		streams[next].Uint64()
		next++
	}); a != 1 {
		t.Errorf("draw 274 made %v allocations, want 1 (the register)", a)
	}
}
