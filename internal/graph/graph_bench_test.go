package graph

import (
	"math/rand"
	"testing"
)

// BenchmarkSortEdgesByWeightDesc times the centralized greedy's edge order
// on 200,000 edges between 4,000 items and 2,000 consumers, in three
// shapes: distinct weights; at most 150 integer weights, as the Flickr
// corpora's tag-count dot products give, so nearly every edge is in a
// long tie run; and every edge four times over three weights.
func BenchmarkSortEdgesByWeightDesc(b *testing.B) {
	const n = 200000
	shapes := []struct {
		name   string
		copies int
		weight func(*rand.Rand) float64
	}{
		{"distinct", 1, func(r *rand.Rand) float64 { return r.ExpFloat64() + 1e-9 }},
		{"integer", 1, func(r *rand.Rand) float64 { return float64(1 + r.Intn(150)) }},
		{"duplicates", 4, func(r *rand.Rand) float64 { return float64(1 + r.Intn(3)) }},
	}
	for _, s := range shapes {
		r := rand.New(rand.NewSource(1))
		g := NewBipartite(4000, 2000)
		g.Grow(n)
		for g.NumEdges() < n {
			item, consumer, w := g.ItemID(r.Intn(g.NumItems())), g.ConsumerID(r.Intn(g.NumConsumers())), s.weight(r)
			for c := 0; c < s.copies; c++ {
				g.AddEdge(item, consumer, w)
			}
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.SortEdgesByWeightDesc()
			}
		})
	}
}
