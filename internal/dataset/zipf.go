// Package dataset generates the synthetic stand-ins for the paper's
// proprietary corpora (flickr-small, flickr-large, yahoo-answers).
//
// The matching algorithms only observe a weighted bipartite graph and
// node capacities, so the generators aim to reproduce the statistical
// properties the paper's evaluation depends on, not the raw data:
// Zipf-distributed tag/term popularity (which yields the exponential-ish
// edge-similarity tails of Figure 6), power-law user activity and photo
// favorites (which yield the heavy-tailed capacity distributions of
// Figure 7), and the relative part sizes of Table 1 (items ≫ consumers
// for flickr; both large for yahoo-answers). flickr-small is generated
// at the paper's original size; the two large datasets are scaled down
// to laptop size with their shape parameters preserved (see DESIGN.md).
package dataset

import (
	"math"
	"math/rand"
)

// Zipf samples from a Zipf distribution over {0, ..., n-1} with
// P(i) ∝ 1/(i+1)^s for any exponent s > 0 (the stdlib sampler requires
// s > 1; tag popularity in social media typically has s ≈ 0.7–1.2, so
// both regimes are needed). A draw is the smallest rank whose CDF value
// reaches a uniform u, found from a guide table: guide[k] is the smallest
// rank with cdf ≥ k/n, so a draw starts at guide[⌊u·n⌋] and takes O(1)
// expected steps, returning exactly what a binary search of the CDF
// would. Deterministic given the source.
type Zipf struct {
	cdf   []float64
	guide []int32
	rng   *rand.Rand
}

// NewZipf precomputes the distribution. It panics on invalid parameters:
// n outside [1, 2³¹−1], or s not a positive number.
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	if n < 1 || n > math.MaxInt32 || !(s > 0) {
		panic("dataset: invalid zipf parameters")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, guide: guideTable(cdf), rng: rng}
}

// guideTable returns guide[k] = the smallest i with cdf[i] ≥ k/n, for a
// non-decreasing cdf of length n whose last value is 1 (NewZipf's is
// sum/sum), so every scan ends in range.
func guideTable(cdf []float64) []int32 {
	n := len(cdf)
	guide := make([]int32, n)
	i := 0
	for k := range guide {
		for cdf[i] < float64(k)/float64(n) {
			i++
		}
		guide[k] = int32(i)
	}
	return guide
}

// Draw samples one rank: the smallest i with cdf[i] ≥ u. The guide entry
// of u's bucket is that rank or a neighbour of it; the walk down covers a
// u·n that rounded up into the next bucket. (u ≤ 1−2⁻⁵³ keeps the
// rounded u·n below n for every n < 2⁵³.)
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	cdf := z.cdf
	i := int(z.guide[int(u*float64(len(cdf)))])
	for i > 0 && cdf[i-1] >= u {
		i--
	}
	for cdf[i] < u {
		i++
	}
	return i
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// ParetoInt samples a discrete Pareto (power-law) value in [xmin, xmax]:
// the integer part of xmin·U^(-1/alpha) clamped to xmax. User activity
// (photos posted, answers written) and photo favorites follow such laws.
// It panics unless alpha is a positive number.
func ParetoInt(rng *rand.Rand, xmin, xmax int, alpha float64) int {
	if !(alpha > 0) {
		panic("dataset: invalid pareto parameters")
	}
	if xmin < 1 {
		xmin = 1
	}
	if xmax < xmin {
		xmax = xmin
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	// Clamp before converting: Go leaves int(x) to the implementation
	// past the int range, and a tiny alpha takes x to +Inf.
	x := float64(xmin) * math.Pow(u, -1/alpha)
	if x >= float64(xmax) {
		return xmax
	}
	return max(int(x), xmin)
}
