package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// nodeSourceSeeds returns the seeds the differential tests run over: the
// corner cases of Seed's normalisation (zero and every multiple of
// 2³¹−1 take the 89482311 remap; negatives wrap) and 10⁴ of the mix64
// outputs nodeRand itself derives.
func nodeSourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 89482311, lcgMod - 1, lcgMod, lcgMod + 1, -lcgMod, 2 * lcgMod, -7 * lcgMod,
		1 << 31, 1 << 32, -(1 << 40) + 3, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt64 / lcgMod * lcgMod,
	}
	for v := 0; v < 2500; v++ {
		for iter := 0; iter < 4; iter++ {
			seeds = append(seeds, int64(mix64(uint64(int64(v%7))^uint64(uint32(v))<<20^uint64(iter)*0x9e37)))
		}
	}
	return seeds
}

func newNodeSource(seed int64) *nodeSource {
	s := new(nodeSource)
	s.Seed(seed)
	return s
}

// TestNodeSourceMatchesMathRandRaw: 700 raw draws per seed, so every
// seed crosses the hand-over at draw 274 and runs well past one full
// turn of the 607-word register; Uint64 and Int63 alternate.
func TestNodeSourceMatchesMathRandRaw(t *testing.T) {
	for _, seed := range nodeSourceSeeds() {
		got, want := newNodeSource(seed), rand.NewSource(seed).(rand.Source64)
		for j := 1; j <= 700; j++ {
			if j%3 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d: Int63 at draw %d = %d, want %d", seed, j, g, w)
				}
				continue
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 at draw %d = %d, want %d", seed, j, g, w)
			}
		}
	}
}

// TestNodeSourceMatchesMathRandMethods drives the methods maximal.go
// calls — Perm and Intn — through rand.New over both sources. Perm's
// length runs from 1 to 820 over the seeds, so some permutations fit in
// the closed form, some start in it and cross draw 273 mid-call, and the
// second Perm on the same Rand starts past it; Intn takes power-of-two
// bounds (a mask, no rejection) and others (the rejection loop).
func TestNodeSourceMatchesMathRandMethods(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 64, 100, 1 << 20, 1<<31 - 1, 1 << 31, 1<<40 + 9}
	for i, seed := range nodeSourceSeeds() {
		got, want := rand.New(newNodeSource(seed)), rand.New(rand.NewSource(seed))
		n := 1 + i%820
		if g, w := got.Perm(n), want.Perm(n); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Perm(%d) differs", seed, n)
		}
		for _, b := range bounds {
			if g, w := got.Intn(b), want.Intn(b); g != w {
				t.Fatalf("seed %d: Intn(%d) = %d, want %d", seed, b, g, w)
			}
		}
		if g, w := got.Perm(n/2+1), want.Perm(n/2+1); !slices.Equal(g, w) {
			t.Fatalf("seed %d: second Perm(%d) differs", seed, n/2+1)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 = %v, want %v", seed, g, w)
		}
	}
}

// TestNodeSourceReseed: Seed restarts the stream, also from past the
// hand-over.
func TestNodeSourceReseed(t *testing.T) {
	s := newNodeSource(5)
	for j := 0; j < 300; j++ {
		s.Uint64()
	}
	s.Seed(9)
	want := rand.NewSource(9).(rand.Source64)
	for j := 1; j <= 300; j++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("after reseed: draw %d = %d, want %d", j, g, w)
		}
	}
}

// TestNodeRandIsMathRandOfTheMixedSeed pins nodeRand's seed derivation
// to the expression the goldens were recorded with.
func TestNodeRandIsMathRandOfTheMixedSeed(t *testing.T) {
	for v := graph.NodeID(0); v < 200; v++ {
		for iter := 0; iter < 8; iter++ {
			h := int64(mix64(uint64(int64(3)) ^ uint64(uint32(v))<<20 ^ uint64(iter)*0x9e37))
			want := rand.New(rand.NewSource(h))
			got := nodeRand(3, v, iter)
			if g, w := got.Perm(12), want.Perm(12); !slices.Equal(g, w) {
				t.Fatalf("node %d iter %d: Perm differs", v, iter)
			}
		}
	}
}
