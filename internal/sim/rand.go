package sim

import "math/rand"

// NewRand returns a random stream whose every draw equals the one
// rand.New(rand.NewSource(seed)) would make, but which holds only its seed
// and a draw count until its 274th draw.
//
// math/rand's source is a 607-word additive lagged-Fibonacci register
// (4.9 KB). Seeding fills word i from Lehmer steps 21+3i, 22+3i and 23+3i
// of the reduced seed (x ← 48271·x mod 2³¹−1) XOR a fixed constant. Draw k
// returns word 334−k plus word 607−k and overwrites the first; up to draw
// 273 neither word has been written yet, so each of those draws is two
// freshly seeded words, computed here on demand. At draw 274 the stream
// builds math/rand's own source, discards 273 draws and delegates to it.
//
// A simulated node draws a handful of noise values in most runs, so most
// streams never build the register.
func NewRand(seed int64) *rand.Rand {
	l := new(lazySource)
	l.Seed(seed)
	return rand.New(l)
}

const (
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	regLen  = 607             // math/rand's register length
	regTap  = 273             // draws before the register reads a word it wrote
	regFeed = regLen - regTap // draw k ≤ regFeed overwrites word regFeed−k
)

// lehmerPow[i] is 48271^(21+3i) mod 2³¹−1, the first Lehmer step of word
// i. cooked[i] is the constant math/rand XORs into word i; it is
// unexported there, so init recovers it from the stream of seed 1.
var lehmerPow, cooked [regLen]uint64

func init() {
	x := uint64(1)
	for range 20 {
		x = lehmerStep(x)
	}
	for i := range lehmerPow {
		x = lehmerStep(x)
		lehmerPow[i] = x
		x = lehmerStep(lehmerStep(x))
	}

	src := rand.NewSource(1).(rand.Source64)
	var out [regLen + 1]uint64 // out[k] is draw k
	for k := 1; k <= regLen; k++ {
		out[k] = src.Uint64()
	}
	// Past draw 273, draw k adds the word draw k−273 wrote to the seeded
	// word it overwrites, so each such draw gives one seeded word; draws
	// 1–273 then give the rest.
	var reg [regLen]uint64
	for k := regTap + 1; k <= regLen; k++ {
		reg[(regFeed-k+regLen)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		reg[regFeed-k] = out[k] - reg[regLen-k]
	}
	for i := range cooked {
		cooked[i] = reg[i] ^ lehmer(i, 1)
	}
}

// word returns word i of the register math/rand seeds from s: Lehmer
// steps 21+3i, 22+3i and 23+3i of s at bit offsets 40, 20 and 0, XOR
// cooked[i].
func word(i int, s uint64) uint64 { return lehmer(i, s) ^ cooked[i] }

func lehmer(i int, s uint64) uint64 {
	x1 := lehmerPow[i] * s % lehmerM
	x2 := lehmerStep(x1)
	return x1<<40 ^ x2<<20 ^ lehmerStep(x2)
}

// lehmerStep is math/rand's seeding generator: x ← 48271·x mod 2³¹−1.
func lehmerStep(x uint64) uint64 { return x * lehmerA % lehmerM }

// lazySource is NewRand's rand.Source64.
type lazySource struct {
	s    uint64        // the seed reduced as math/rand reduces it, in [1, 2³¹−2]
	n    int           // draws made, up to regTap
	full rand.Source64 // math/rand's own source, from draw 274 on
}

func (l *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311 // math/rand's substitute for a zero seed
	}
	*l = lazySource{s: uint64(seed)}
}

func (l *lazySource) Uint64() uint64 {
	if l.n < regTap {
		l.n++
		return word(regFeed-l.n, l.s) + word(regLen-l.n, l.s)
	}
	if l.full == nil {
		l.full = rand.NewSource(int64(l.s)).(rand.Source64)
		for range regTap {
			l.full.Uint64()
		}
	}
	return l.full.Uint64()
}

func (l *lazySource) Int63() int64 { return int64(l.Uint64() &^ (1 << 63)) }
