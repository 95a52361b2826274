package stats

import (
	"math/rand"
	"testing"
)

func BenchmarkLogHistogramAdd(b *testing.B) {
	h := NewLogHistogram(0.001, 1.5, 48)
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(xs[i%len(xs)])
	}
}

func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(xs)
	}
}
