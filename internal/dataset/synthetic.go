package dataset

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// SyntheticConfig parameterizes the direct edge-level generator, used by
// scale benchmarks that need graphs far larger than the vector pipeline
// can score quickly. It skips document vectors and draws the bipartite
// graph directly with the target statistical shape: power-law item
// degrees and exponentially distributed edge weights (the shape of
// Figure 6).
type SyntheticConfig struct {
	NumItems     int
	NumConsumers int
	// MeanDegree is the mean number of edges per item.
	MeanDegree int
	// DegreeAlpha shapes the power-law item degrees.
	DegreeAlpha float64
	// WeightScale is the mean of the exponential edge weights.
	WeightScale float64
	// CapacityAlpha, CapacityMax shape power-law consumer capacities;
	// item capacities split the bandwidth uniformly.
	CapacityAlpha float64
	CapacityMax   int
	Seed          int64
}

// Synthetic draws a random bipartite graph with power-law item degrees,
// exponential edge weights, and Section-4 capacities already applied.
// With no consumers it draws no edges.
func Synthetic(cfg SyntheticConfig) *graph.Bipartite {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.NewBipartite(cfg.NumItems, cfg.NumConsumers)

	if cfg.MeanDegree < 1 {
		cfg.MeanDegree = 1
	}
	if cfg.WeightScale <= 0 {
		cfg.WeightScale = 1
	}
	if cfg.NumConsumers > 0 {
		drawEdges(g, rng, cfg)
	}

	// Capacities: power-law consumer activity, uniform item split.
	var bandwidth float64
	for j := 0; j < cfg.NumConsumers; j++ {
		b := float64(ParetoInt(rng, 1, cfg.CapacityMax, cfg.CapacityAlpha))
		g.SetCapacity(g.ConsumerID(j), b)
		bandwidth += b
	}
	per := bandwidth / float64(cfg.NumItems)
	if per < 1 {
		per = 1
	}
	for i := 0; i < cfg.NumItems; i++ {
		g.SetCapacity(g.ItemID(i), per)
	}
	return g
}

// edgeChunk is the capacity of one chunk of Synthetic's edge list.
const edgeChunk = 1 << 16

// drawEdges gives every item a power-law number of distinct consumers,
// picked Zipf-style so popular consumers exist, with exponential
// weights.
func drawEdges(g *graph.Bipartite, rng *rand.Rand, cfg SyntheticConfig) {
	pick := NewZipf(rng, 0.7, cfg.NumConsumers)
	perm := rng.Perm(cfg.NumConsumers) // decouple popularity from id order
	// seen[j] == i+1 marks consumer j as already drawn for item i, so
	// one array serves every item without clearing.
	seen := make([]int32, cfg.NumConsumers)
	// Edges go to fixed-size chunks, then into g in one exact-sized
	// copy: appending to g directly regrows and recopies its edge slice
	// a few dozen times.
	var chunks [][]graph.Edge
	edges := make([]graph.Edge, 0, edgeChunk)
	for i := 0; i < cfg.NumItems; i++ {
		deg := min(ParetoInt(rng, 1, 8*cfg.MeanDegree, cfg.DegreeAlpha), cfg.NumConsumers)
		stamp := int32(i + 1)
		for drawn := 0; drawn < deg; {
			j := perm[pick.Draw()]
			if seen[j] == stamp {
				continue
			}
			seen[j] = stamp
			drawn++
			w := rng.ExpFloat64() * cfg.WeightScale
			if w <= 0 || math.IsInf(w, 0) {
				w = cfg.WeightScale
			}
			if len(edges) == cap(edges) {
				chunks = append(chunks, edges)
				edges = make([]graph.Edge, 0, edgeChunk)
			}
			edges = append(edges, graph.Edge{Item: g.ItemID(i), Consumer: g.ConsumerID(j), Weight: w})
		}
	}
	addEdges(g, append(chunks, edges))
}
