package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
)

func stackOpts(eps float64, seed int64) StackOptions {
	return StackOptions{MR: testMR, Eps: eps, Seed: seed}
}

func TestStackMRViolationBound(t *testing.T) {
	// Theorem 1: capacities are violated by a factor of at most (1+ε).
	ctx := context.Background()
	for _, eps := range []float64{0.25, 0.5, 1} {
		for seed := int64(0); seed < 10; seed++ {
			g := graph.RandomBipartite(graph.RandomConfig{
				NumItems: 10, NumConsumers: 8, EdgeProb: 0.5,
				MaxWeight: 4, MaxCapacity: 3, Seed: seed,
			})
			res, err := StackMR(ctx, g, stackOpts(eps, seed))
			if err != nil {
				t.Fatalf("eps=%v seed=%d: %v", eps, seed, err)
			}
			if err := res.Matching.Validate(1 + eps); err != nil {
				t.Errorf("eps=%v seed=%d: %v", eps, seed, err)
			}
		}
	}
}

func TestStackMRApproximationGuarantee(t *testing.T) {
	// Theorem 1: value ≥ OPT/(6+ε).
	ctx := context.Background()
	const eps = 1.0
	for seed := int64(0); seed < 25; seed++ {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: 7, NumConsumers: 6, EdgeProb: 0.5,
			MaxWeight: 5, MaxCapacity: 2, Seed: seed + 300,
		})
		res, err := StackMR(ctx, g, stackOpts(eps, seed))
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := flow.MaxWeightBMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Value() < opt/(6+eps)-1e-9 {
			t.Errorf("seed %d: stackmr %v < OPT/(6+eps) = %v",
				seed, res.Matching.Value(), opt/(6+eps))
		}
	}
}

func TestStackMRDeterministicUnderSeed(t *testing.T) {
	ctx := context.Background()
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 10, NumConsumers: 10, EdgeProb: 0.4,
		MaxWeight: 3, MaxCapacity: 2, Seed: 21,
	})
	a, err := StackMR(ctx, g, stackOpts(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := StackMR(ctx, g, stackOpts(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	ia, ib := a.Matching.EdgeIndexes(), b.Matching.EdgeIndexes()
	if len(ia) != len(ib) {
		t.Fatal("same seed, different sizes")
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("same seed, different matchings")
		}
	}
	if a.Rounds != b.Rounds {
		t.Error("same seed, different round counts")
	}
}

func TestStackMRSingleEdge(t *testing.T) {
	ctx := context.Background()
	g := graph.NewBipartite(1, 1)
	g.SetCapacity(0, 1)
	g.SetCapacity(1, 1)
	g.AddEdge(0, 1, 3)
	res, err := StackMR(ctx, g, stackOpts(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size() != 1 || res.Matching.Value() != 3 {
		t.Errorf("size=%d value=%v", res.Matching.Size(), res.Matching.Value())
	}
	if res.Phases < 1 {
		t.Error("no layers recorded")
	}
}

func TestStackMREmptyGraph(t *testing.T) {
	ctx := context.Background()
	g := graph.NewBipartite(3, 3)
	g.SetAllCapacities(graph.ItemSide, 1)
	g.SetAllCapacities(graph.ConsumerSide, 1)
	res, err := StackMR(ctx, g, stackOpts(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size() != 0 || res.Rounds != 0 {
		t.Errorf("size=%d rounds=%d", res.Matching.Size(), res.Rounds)
	}
}

func TestStackMRNegativeEps(t *testing.T) {
	ctx := context.Background()
	g := graph.NewBipartite(1, 1)
	g.SetCapacity(0, 1)
	g.SetCapacity(1, 1)
	g.AddEdge(0, 1, 1)
	if _, err := StackMR(ctx, g, StackOptions{MR: testMR, Eps: -0.5}); err == nil {
		t.Error("negative eps accepted")
	}
}

// TestStackRejectsNonFiniteEps: every stack algorithm refuses an ε that
// is negative, NaN or infinite with an error — a NaN threshold compares
// false against every cover, so nothing would ever count as covered —
// and accepts zero (the default) and any finite positive ε.
func TestStackRejectsNonFiniteEps(t *testing.T) {
	ctx := context.Background()
	g := graph.NewBipartite(1, 1)
	g.SetCapacity(0, 1)
	g.SetCapacity(1, 1)
	g.AddEdge(0, 1, 1)
	algos := []struct {
		name string
		run  func(context.Context, *graph.Bipartite, StackOptions) (*Result, error)
	}{
		{"StackMR", StackMR}, {"StackGreedyMR", StackGreedyMR}, {"StackMRStrict", StackMRStrict},
	}
	for _, tc := range []struct {
		eps float64
		ok  bool
	}{
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false}, {-0.5, false},
		{0, true}, {0.25, true}, {3, true},
	} {
		if err := CheckEps(tc.eps); (err == nil) != tc.ok {
			t.Errorf("CheckEps(%v) = %v", tc.eps, err)
		}
		for _, a := range algos {
			_, err := a.run(ctx, g, StackOptions{MR: testMR, Eps: tc.eps})
			if (err == nil) != tc.ok {
				t.Errorf("%s with eps %v: err = %v", a.name, tc.eps, err)
			}
		}
	}
}

func TestStackGreedyMRFeasibilityAndQuality(t *testing.T) {
	// StackGreedyMR must obey the same violation bound; the paper finds
	// it slightly better than StackMR on value, which we check in
	// aggregate over seeds (not per instance, since it is a heuristic).
	ctx := context.Background()
	const eps = 1.0
	var sumStack, sumGreedyStack float64
	for seed := int64(0); seed < 12; seed++ {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: 12, NumConsumers: 10, EdgeProb: 0.4,
			MaxWeight: 4, MaxCapacity: 2, Seed: seed + 900,
		})
		rs, err := StackMR(ctx, g, stackOpts(eps, seed))
		if err != nil {
			t.Fatal(err)
		}
		rg, err := StackGreedyMR(ctx, g, stackOpts(eps, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := rg.Matching.Validate(1 + eps); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		sumStack += rs.Matching.Value()
		sumGreedyStack += rg.Matching.Value()
	}
	if sumGreedyStack < 0.9*sumStack {
		t.Errorf("StackGreedyMR aggregate value %v far below StackMR %v",
			sumGreedyStack, sumStack)
	}
}

func TestStackMRPhasesAreLayers(t *testing.T) {
	ctx := context.Background()
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 15, NumConsumers: 12, EdgeProb: 0.3,
		MaxWeight: 8, MaxCapacity: 3, Seed: 4,
	})
	res, err := StackMR(ctx, g, stackOpts(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases <= 0 {
		t.Error("no layers")
	}
	// Rounds must cover at least: per layer 4 Garrido stage jobs (one
	// iteration minimum) + update + filter, plus one pop job per layer.
	if res.Rounds < res.Phases*7 {
		t.Errorf("rounds %d implausibly small for %d layers", res.Rounds, res.Phases)
	}
}

func TestStackSequentialFeasibleAndGuarantee(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: 7, NumConsumers: 7, EdgeProb: 0.5,
			MaxWeight: 6, MaxCapacity: 2, Seed: seed + 60,
		})
		res := StackSequential(g, 1)
		if err := res.Matching.Validate(1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, opt, err := flow.MaxWeightBMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Value() < opt/7-1e-9 {
			t.Errorf("seed %d: stackseq %v < OPT/7 = %v", seed, res.Matching.Value(), opt/7)
		}
	}
}

func TestStackSequentialDefaultEps(t *testing.T) {
	g := graph.GreedyTightCase(0.5)
	a := StackSequential(g, 0) // defaults to 1
	b := StackSequential(g, 1)
	if a.Matching.Value() != b.Matching.Value() {
		t.Error("eps default mismatch")
	}
}

func TestStackAlgorithmsOnPath(t *testing.T) {
	// The GreedyMR worst case is easy for the stack algorithms: the
	// number of rounds should stay far below the path length.
	ctx := context.Background()
	const k = 40
	g := graph.PathGraph(k)
	res, err := StackMR(ctx, g, stackOpts(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(2); err != nil {
		t.Error(err)
	}
	if res.Matching.Size() == 0 {
		t.Error("empty matching on path")
	}
	greedyRes, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("path-%d: stack rounds=%d layers=%d, greedymr rounds=%d",
		k, res.Rounds, res.Phases, greedyRes.Rounds)
}

// Pins the job-input ordering that repolint's determinism rule enforces:
// StackMR's pop and strict-filter phases flatten per-node adjacency maps
// into job input, and that input must come out in ascending node order
// regardless of map iteration order. If nodePairsSorted regressed to raw
// map order, every downstream byte would depend on the engine's group-sort
// alone to restore determinism.
func TestNodePairsSortedAscending(t *testing.T) {
	perNode := map[graph.NodeID][]int32{
		7: {70, 71},
		0: {1},
		3: nil,
		5: {50},
		1: {10, 11, 12},
	}
	for trial := 0; trial < 8; trial++ {
		got := nodePairsSorted(perNode)
		if len(got) != len(perNode) {
			t.Fatalf("trial %d: %d pairs, want %d", trial, len(got), len(perNode))
		}
		for i, p := range got {
			if i > 0 && got[i-1].Key >= p.Key {
				t.Fatalf("trial %d: keys not strictly ascending at %d: %v then %v",
					trial, i, got[i-1].Key, p.Key)
			}
			want := perNode[p.Key]
			if len(p.Value) != len(want) {
				t.Fatalf("trial %d: node %d: got %v want %v", trial, p.Key, p.Value, want)
			}
			for j := range want {
				if p.Value[j] != want[j] {
					t.Fatalf("trial %d: node %d: got %v want %v", trial, p.Key, p.Value, want)
				}
			}
		}
	}
}
