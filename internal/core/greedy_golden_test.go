package core

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// greedyTieGraph is hand-built so that the tie-break decides the
// matching: one weight repeats across different items and consumers,
// some (item, consumer, weight) edges appear two and three times, and the
// edges are added out of (item, consumer) order, so an order that broke
// ties by edge index alone would pick other edges.
func greedyTieGraph() *graph.Bipartite {
	g := graph.NewBipartite(5, 4)
	for v := 0; v < g.NumNodes(); v++ {
		g.SetCapacity(graph.NodeID(v), float64(1+v%2))
	}
	for _, e := range []struct {
		i, c int
		w    float64
	}{
		{4, 3, 2}, {3, 1, 2}, {0, 2, 2}, {2, 0, 2}, {0, 2, 2}, {1, 1, 2},
		{4, 0, 5}, {0, 3, 5}, {4, 0, 5}, {2, 2, 1}, {2, 2, 1}, {2, 2, 1},
		{3, 3, 0.5}, {1, 0, 0.5}, {0, 0, 2}, {1, 3, 2}, {3, 2, 5}, {2, 1, 1},
	} {
		g.AddEdge(g.ItemID(e.i), g.ConsumerID(e.c), e.w)
	}
	return g
}

// TestGreedyGolden pins what the centralized greedy picks, and so the
// edge order it walks, on three graphs: the benchmark's zipf generator at
// a test-sized scale (few equal weights), a Flickr-corpus graph (many
// equal weights, so the (item, consumer) tie-break decides much of the
// matching) and greedyTieGraph (equal weights across nodes and duplicate
// edges). It pins a SHA-256 of the matched edge ids and the bits of the
// matching's value. Every literal was recorded from an earlier build; if
// this test fails, the order graph.SortEdgesByWeightDesc returns or the
// greedy's pick rule moved — do not edit them.
func TestGreedyGolden(t *testing.T) {
	flickr := func() *graph.Bipartite {
		cfg := dataset.FlickrSmallConfig()
		cfg.NumItems, cfg.NumConsumers = 420, 80
		c := dataset.Flickr("flickr", cfg)
		g := c.BuildGraph(4)
		if err := c.ApplyCapacities(g, 1); err != nil {
			t.Fatal(err)
		}
		return g
	}
	zipf := func() *graph.Bipartite {
		return dataset.Synthetic(dataset.SyntheticConfig{
			NumItems: 3000, NumConsumers: 300, MeanDegree: 10,
			DegreeAlpha: 1.4, WeightScale: 1, CapacityAlpha: 1.2,
			CapacityMax: 200, Seed: 1,
		})
	}
	cases := []struct {
		name  string
		g     *graph.Bipartite
		edges int
		picks string
		value uint64
	}{
		{"zipf", zipf(), 8058,
			"c6241d93428e218a9cd4e1ddb341d3f9f7b9b9d1d2df2cf65323ff961e04bd30", 0x40984b478a956a25},
		{"flickr", flickr(), 1796,
			"cca4cb6c1a97623e1eae6365b4552b066ad315a691416d4b561bb5b6174fcc8b", 0x4096300000000000},
		{"ties", greedyTieGraph(), 18,
			"07182d57f164906b69267b919568000320fa08e51acdcb2299f1c2694ad869b9", 0x4033000000000000},
	}
	for _, c := range cases {
		if n := c.g.NumEdges(); n != c.edges {
			t.Errorf("%s: the golden graph moved: %d edges, want %d", c.name, n, c.edges)
			continue
		}
		m := Greedy(c.g).Matching
		var b []byte
		for _, ei := range m.EdgeIndexes() {
			b = binary.LittleEndian.AppendUint32(b, uint32(ei))
		}
		if got := hexSum(b); got != c.picks {
			t.Errorf("%s: matched edges hash to %s, want %s", c.name, got, c.picks)
		}
		if got := math.Float64bits(m.Value()); got != c.value {
			t.Errorf("%s: value %v has bits %#x, want %#x", c.name, m.Value(), got, c.value)
		}
	}
}
