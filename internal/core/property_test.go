package core

// Property-based tests over random instances: the cross-algorithm
// invariants that Section 5 proves, checked with testing/quick.

import (
	"context"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// genGraph derives a small random instance from arbitrary quick inputs.
func genGraph(seed int64, nItems, nCons, prob uint8) *graph.Bipartite {
	return graph.RandomBipartite(graph.RandomConfig{
		NumItems:     int(nItems)%10 + 2,
		NumConsumers: int(nCons)%8 + 2,
		EdgeProb:     0.2 + float64(prob%60)/100,
		MaxWeight:    5,
		MaxCapacity:  3,
		Seed:         seed,
	})
}

func TestPropertyGreedyMREqualsGreedy(t *testing.T) {
	// With almost-surely-distinct float weights, the parallel
	// locally-dominant process computes exactly the sequential greedy
	// matching (the b-Suitor equivalence).
	ctx := context.Background()
	prop := func(seed int64, nItems, nCons, prob uint8) bool {
		g := genGraph(seed, nItems, nCons, prob)
		res, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
		if err != nil {
			return false
		}
		return math.Abs(res.Matching.Value()-Greedy(g).Matching.Value()) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAllAlgorithmsRespectSlack(t *testing.T) {
	ctx := context.Background()
	prop := func(seed int64, nItems, nCons, prob uint8) bool {
		g := genGraph(seed, nItems, nCons, prob)
		gm, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
		if err != nil || gm.Matching.Validate(1) != nil {
			return false
		}
		sm, err := StackMR(ctx, g, StackOptions{MR: testMR, Eps: 1, Seed: seed})
		if err != nil || sm.Matching.Validate(2) != nil {
			return false
		}
		ss, err := StackMRStrict(ctx, g, StackOptions{MR: testMR, Eps: 1, Seed: seed})
		if err != nil || ss.Matching.Validate(1) != nil {
			return false
		}
		return StackSequential(g, 1).Matching.Validate(1) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMatchingValueEqualsSumOfWeights(t *testing.T) {
	prop := func(seed int64, nItems, nCons, prob uint8) bool {
		g := genGraph(seed, nItems, nCons, prob)
		m := Greedy(g).Matching
		var sum float64
		for _, e := range m.Edges() {
			sum += e.Weight
		}
		return math.Abs(sum-m.Value()) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyStackDualsCoverStackedEdges(t *testing.T) {
	// Primal-dual invariant: after the push phase every edge was either
	// stacked (its duals were raised to cover it) or weakly covered.
	// Observable consequence: the stack algorithms never return an
	// empty matching on a graph that has at least one edge between
	// positive-capacity nodes.
	ctx := context.Background()
	prop := func(seed int64, nItems, nCons uint8) bool {
		g := genGraph(seed, nItems, nCons, 50)
		hasLiveEdge := false
		for _, e := range g.Edges() {
			if g.IntCapacity(e.Item) > 0 && g.IntCapacity(e.Consumer) > 0 {
				hasLiveEdge = true
				break
			}
		}
		res, err := StackMR(ctx, g, StackOptions{MR: testMR, Eps: 1, Seed: seed})
		if err != nil {
			return false
		}
		if hasLiveEdge && res.Matching.Size() == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// spillingMR is a spill-backend configuration whose memory budget is
// below any partition's share, so every job whose partition outgrows
// the spill shuffle's smallest share (64 records) writes runs to disk.
var spillingMR = mapreduce.Config{Mappers: 3, Reducers: 1,
	Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleSpill, MemoryBudget: 1}}

func TestPropertyResultsUnchangedOnSpill(t *testing.T) {
	// The paper's random-graph property off the memory backend: the full
	// GreedyMR computation through a shuffle that spills its runs to
	// disk must give the identical matching.
	ctx := context.Background()
	unchanged := func(g *graph.Bipartite) (int64, bool) {
		clean, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
		if err != nil {
			return 0, false
		}
		spilled, err := GreedyMR(ctx, g, GreedyMROptions{MR: spillingMR})
		if err != nil {
			return 0, false
		}
		return spilled.Shuffle.SpilledRecords, slices.Equal(clean.Matching.EdgeIndexes(), spilled.Matching.EdgeIndexes())
	}
	prop := func(seed int64, nItems, nCons, prob uint8) bool {
		_, ok := unchanged(genGraph(seed, nItems, nCons, prob))
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	// The random draws need not outgrow the spill shuffle's smallest
	// share. The complete graph on genGraph's largest node sets does, for
	// any weights, so the spill path is exercised whatever they drew.
	complete := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 11, NumConsumers: 9, EdgeProb: 1,
		MaxWeight: 5, MaxCapacity: 3, Seed: 1,
	})
	spilled, ok := unchanged(complete)
	if !ok {
		t.Error("the complete 11x9 graph's matching changed on the spill backend")
	}
	if spilled == 0 {
		t.Error("the complete 11x9 graph spilled no record: the spill backend was never exercised")
	}
}

func TestStackMROnSpill(t *testing.T) {
	// The randomized algorithm is seeded independently of task
	// scheduling and of the shuffle backend, so a shuffle that spills to
	// disk must not change its output either.
	ctx := context.Background()
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 12, NumConsumers: 10, EdgeProb: 0.4,
		MaxWeight: 4, MaxCapacity: 2, Seed: 17,
	})
	clean, err := StackMR(ctx, g, StackOptions{MR: testMR, Eps: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := StackMR(ctx, g, StackOptions{MR: spillingMR, Eps: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Matching.Value() != spilled.Matching.Value() {
		t.Errorf("value changed on the spill backend: %v vs %v",
			clean.Matching.Value(), spilled.Matching.Value())
	}
	if spilled.Shuffle.SpilledRecords == 0 {
		t.Error("the spill backend spilled no record")
	}
}
