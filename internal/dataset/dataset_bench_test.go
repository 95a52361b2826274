package dataset

import (
	"math/rand"
	"testing"
)

func BenchmarkFlickrGeneration(b *testing.B) {
	cfg := FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers = 1000, 200
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		Flickr("bench", cfg)
	}
}

func BenchmarkAnswersGeneration(b *testing.B) {
	cfg := AnswersScaledConfig()
	cfg.NumItems, cfg.NumConsumers = 800, 200
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		Answers("bench", cfg)
	}
}

func BenchmarkBuildGraph(b *testing.B) {
	cfg := FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers = 1000, 200
	c := Flickr("bench", cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BuildGraph(2)
	}
}

// BenchmarkSynthetic draws the match-zipf-* benchmark workloads' graph
// shape at a tenth of its size.
func BenchmarkSynthetic(b *testing.B) {
	cfg := SyntheticConfig{
		NumItems: 30000, NumConsumers: 3000, MeanDegree: 10,
		DegreeAlpha: 1.4, WeightScale: 1, CapacityAlpha: 1.2,
		CapacityMax: 200,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		Synthetic(cfg)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(rand.New(rand.NewSource(1)), 0.9, 50000)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += z.Draw()
	}
	_ = sink
}

func BenchmarkParetoInt(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var sink int
	for i := 0; i < b.N; i++ {
		sink += ParetoInt(rng, 1, 1000, 1.2)
	}
	_ = sink
}
