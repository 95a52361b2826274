package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// runMaximal drives the maximal-matching subroutine directly.
func runMaximal(t *testing.T, g *graph.Bipartite, strategy MarkingStrategy, seed int64) *Matching {
	t.Helper()
	driver := mapreduce.NewDriver(testMR)
	driver.MaxRounds = 64*g.NumEdges() + 256
	recs, err := nodeDataset(g, driver.Partitions(), false)
	if err != nil {
		t.Fatal(err)
	}
	matched, err := maximalBMatching(context.Background(), driver, flaggedView(recs),
		maximalConfig{strategy: strategy, seed: seed, numEdges: g.NumEdges()})
	if err != nil {
		t.Fatal(err)
	}
	return NewMatching(g, matched)
}

// flaggedView is the start of a maximal matching over a node view at the
// view's own capacities.
func flaggedView(recs *mapreduce.Dataset[graph.NodeID, nodeState]) *mapreduce.Dataset[graph.NodeID, mmNode] {
	return mapreduce.MapValues(recs, func(_ graph.NodeID, s nodeState) (mmNode, bool) {
		return flagged(s.B, s.Adj), true
	})
}

func TestMaximalMatchingFeasible(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: 10, NumConsumers: 8, EdgeProb: 0.5,
			MaxWeight: 3, MaxCapacity: 3, Seed: seed,
		})
		m := runMaximal(t, g, MarkRandom, seed)
		if err := m.Validate(1); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestMaximalMatchingIsMaximal(t *testing.T) {
	// Garrido et al.'s guarantee: no edge can be added without
	// violating a capacity. This is the property StackMR depends on.
	for seed := int64(0); seed < 15; seed++ {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: 9, NumConsumers: 9, EdgeProb: 0.45,
			MaxWeight: 2, MaxCapacity: 2, Seed: seed + 50,
		})
		m := runMaximal(t, g, MarkRandom, seed)
		deg := m.Degrees()
		for i := 0; i < g.NumEdges(); i++ {
			if m.Contains(int32(i)) {
				continue
			}
			e := g.Edge(i)
			if deg[e.Item] < g.IntCapacity(e.Item) && deg[e.Consumer] < g.IntCapacity(e.Consumer) {
				t.Errorf("seed %d: edge %d addable: not maximal", seed, i)
			}
		}
	}
}

func TestMaximalMatchingGreedyStrategy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: 8, NumConsumers: 8, EdgeProb: 0.5,
			MaxWeight: 4, MaxCapacity: 2, Seed: seed + 200,
		})
		m := runMaximal(t, g, MarkHeaviest, seed)
		if err := m.Validate(1); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestMaximalMatchingDeterministicUnderSeed(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 10, NumConsumers: 10, EdgeProb: 0.4,
		MaxWeight: 2, MaxCapacity: 2, Seed: 77,
	})
	a := runMaximal(t, g, MarkRandom, 13)
	b := runMaximal(t, g, MarkRandom, 13)
	ia, ib := a.EdgeIndexes(), b.EdgeIndexes()
	if len(ia) != len(ib) {
		t.Fatal("same seed produced different sizes")
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("same seed produced different matchings")
		}
	}
}

func TestMaximalMatchingUnitCapacities(t *testing.T) {
	// With all capacities 1 the result is a maximal simple matching:
	// matched edges are pairwise disjoint.
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 12, NumConsumers: 12, EdgeProb: 0.3,
		MaxWeight: 1, MaxCapacity: 1, Seed: 5,
	})
	m := runMaximal(t, g, MarkRandom, 5)
	seen := make(map[graph.NodeID]bool)
	for _, e := range m.Edges() {
		if seen[e.Item] || seen[e.Consumer] {
			t.Fatalf("node repeated in unit-capacity matching")
		}
		seen[e.Item] = true
		seen[e.Consumer] = true
	}
}

func TestMaximalMatchingCompleteBipartite(t *testing.T) {
	// On K_{n,n} with capacity 1 per node, a maximal matching is
	// perfect.
	const n = 6
	g := graph.NewBipartite(n, n)
	g.SetAllCapacities(graph.ItemSide, 1)
	g.SetAllCapacities(graph.ConsumerSide, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.AddEdge(g.ItemID(i), g.ConsumerID(j), 1+float64(i*n+j)/100)
		}
	}
	m := runMaximal(t, g, MarkRandom, 3)
	if m.Size() != n {
		t.Errorf("matching size %d on K_{%d,%d}, want perfect %d", m.Size(), n, n, n)
	}
}

func TestMaximalMatchingSingleEdge(t *testing.T) {
	g := graph.NewBipartite(1, 1)
	g.SetCapacity(0, 1)
	g.SetCapacity(1, 1)
	g.AddEdge(0, 1, 1)
	m := runMaximal(t, g, MarkRandom, 1)
	if m.Size() != 1 {
		t.Errorf("single edge not matched: size %d", m.Size())
	}
}

func TestMaximalMatchingStar(t *testing.T) {
	// A star with center capacity k matches exactly k leaves.
	const leaves = 10
	const k = 3
	g := graph.NewBipartite(1, leaves)
	g.SetCapacity(g.ItemID(0), k)
	for j := 0; j < leaves; j++ {
		g.SetCapacity(g.ConsumerID(j), 1)
		g.AddEdge(g.ItemID(0), g.ConsumerID(j), 1)
	}
	m := runMaximal(t, g, MarkRandom, 2)
	if m.Size() != k {
		t.Errorf("star matched %d edges, want %d", m.Size(), k)
	}
}

func TestPickRandomProperties(t *testing.T) {
	rng := nodeRand(1, 2, 3)
	for n := 0; n < 10; n++ {
		for k := 0; k <= n+2; k++ {
			got := pickRandom(n, k, rng)
			want := k
			if want > n {
				want = n
			}
			if len(got) != want {
				t.Fatalf("pickRandom(%d,%d) returned %d values", n, k, len(got))
			}
			seen := make(map[int]bool)
			for _, i := range got {
				if i < 0 || i >= n || seen[i] {
					t.Fatalf("pickRandom(%d,%d) invalid index %d", n, k, i)
				}
				seen[i] = true
			}
		}
	}
}

func TestPickFromSubset(t *testing.T) {
	rng := nodeRand(9, 9, 9)
	cands := []int{3, 7, 11, 15}
	got := pickFrom(cands, 2, rng)
	if len(got) != 2 {
		t.Fatalf("pickFrom returned %d", len(got))
	}
	valid := map[int]bool{3: true, 7: true, 11: true, 15: true}
	for _, v := range got {
		if !valid[v] {
			t.Errorf("pickFrom invented %d", v)
		}
	}
	if got2 := pickFrom(cands, 10, rng); len(got2) != 4 {
		t.Errorf("pickFrom over-ask returned %d", len(got2))
	}
}

func TestMarkingStrategyString(t *testing.T) {
	if MarkRandom.String() != "random" || MarkHeaviest.String() != "heaviest" {
		t.Error("MarkingStrategy.String wrong")
	}
}
