package core

import "math/rand"

// math/rand's seeded source is an additive lagged-Fibonacci generator:
// draw j adds state words (334−j) and (607−j) mod 607 and stores the sum
// in the former. Seed fills the 607 words from the Lehmer generator
// xₖ = seed·48271ᵏ mod 2³¹−1 — word i is x₍₂₁₊₃ᵢ₎≪40 ^ x₍₂₂₊₃ᵢ₎≪20 ^
// x₍₂₃₊₃ᵢ₎ ^ rngCooked[i] — which is 1 841 multiplications and 4.9 KB for
// the handful of draws a node makes. The first 273 draws (the tap
// distance) read only words no draw has stored to yet: the first store
// goes to word 333 and the first read of a stored word is draw 274's. So
// each is a function of the seed and j alone, and nodeSource computes its
// two words from precomputed powers of 48271 with no state but a counter.
const (
	rngLen, rngTap = 607, 273
	lcgMul, lcgMod = 48271, 1<<31 - 1
)

var (
	lcgPow    [rngLen]uint64 // lcgPow[i] = 48271^(21+3i) mod 2³¹−1
	rngCooked [rngLen]uint64 // math/rand's unexported table of that name
)

// init recovers rngCooked from the library itself: 607 draws store to
// every word once, so the outputs are the whole state; undoing the
// additions last to first leaves seed 1's state, which is its Lehmer
// words xor the table.
func init() {
	p := uint64(1)
	for k := 0; k < 21+3*rngLen; k++ {
		if k >= 21 && k%3 == 0 {
			lcgPow[k/3-7] = p
		}
		p = p * lcgMul % lcgMod
	}
	src, feed := rand.NewSource(1).(rand.Source64), rngLen-rngTap
	for j := 0; j < rngLen; j++ {
		feed = (feed + rngLen - 1) % rngLen
		rngCooked[feed] = src.Uint64()
	}
	for j := 0; j < rngLen; j++ {
		rngCooked[feed] -= rngCooked[(feed+rngTap)%rngLen]
		feed = (feed + 1) % rngLen
	}
	for i := range rngCooked {
		rngCooked[i] ^= lcgWord(1, i)
	}
}

// lcgWord is seeded state word i before the xor with rngCooked[i].
func lcgWord(seed uint64, i int) uint64 {
	x1 := seed * lcgPow[i] % lcgMod
	x2 := x1 * lcgMul % lcgMod
	return x1<<40 ^ x2<<20 ^ x2*lcgMul%lcgMod
}

// nodeSource reproduces rand.NewSource(seed) draw for draw. Draw 274
// needs the word draw 1 stored, so there it seeds the real source,
// discards the 273 draws already served and delegates from then on (a
// node of degree above 273 gets that far inside one Perm).
type nodeSource struct {
	seed uint64 // as Seed normalises it: in [1, 2³¹−2]
	n    int    // draws served from the closed form
	full rand.Source64
}

// Seed implements rand.Source, normalising as the library does.
func (s *nodeSource) Seed(seed int64) {
	if seed %= lcgMod; seed < 0 {
		seed += lcgMod
	} else if seed == 0 {
		seed = 89482311
	}
	*s = nodeSource{seed: uint64(seed)}
}

// Uint64 implements rand.Source64.
func (s *nodeSource) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		feed, tap := rngLen-rngTap-s.n, rngLen-s.n
		return (lcgWord(s.seed, feed) ^ rngCooked[feed]) + (lcgWord(s.seed, tap) ^ rngCooked[tap])
	}
	if s.full == nil {
		s.full = rand.NewSource(int64(s.seed)).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// Int63 implements rand.Source.
func (s *nodeSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
