package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/mapreduce"
)

var testMR = mapreduce.Config{Mappers: 2, Reducers: 2}

func TestGreedyMRFeasibleAndMaximal(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 20; seed++ {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: 12, NumConsumers: 10, EdgeProb: 0.4,
			MaxWeight: 3, MaxCapacity: 3, Seed: seed,
		})
		res, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Matching.Validate(1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Maximality.
		deg := res.Matching.Degrees()
		for i := 0; i < g.NumEdges(); i++ {
			if res.Matching.Contains(int32(i)) {
				continue
			}
			e := g.Edge(i)
			if deg[e.Item] < g.IntCapacity(e.Item) && deg[e.Consumer] < g.IntCapacity(e.Consumer) {
				t.Errorf("seed %d: edge %d addable, matching not maximal", seed, i)
			}
		}
	}
}

func TestGreedyMRHalfApproximation(t *testing.T) {
	ctx := context.Background()
	for seed := int64(100); seed < 130; seed++ {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: 6, NumConsumers: 6, EdgeProb: 0.5,
			MaxWeight: 5, MaxCapacity: 2, Seed: seed,
		})
		res, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := flow.MaxWeightBMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matching.Value() < opt/2-1e-9 {
			t.Errorf("seed %d: value %v < OPT/2 (%v)", seed, res.Matching.Value(), opt/2)
		}
	}
}

func TestGreedyMRValueTraceMonotone(t *testing.T) {
	ctx := context.Background()
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 20, NumConsumers: 15, EdgeProb: 0.3,
		MaxWeight: 2, MaxCapacity: 3, Seed: 9,
	})
	res, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValueTrace) != res.Rounds {
		t.Errorf("trace length %d != rounds %d", len(res.ValueTrace), res.Rounds)
	}
	prev := 0.0
	for i, v := range res.ValueTrace {
		if v < prev-1e-12 {
			t.Errorf("trace decreased at %d: %v -> %v", i, prev, v)
		}
		prev = v
	}
	if prev != res.Matching.Value() {
		t.Errorf("final trace %v != matching value %v", prev, res.Matching.Value())
	}
}

func TestGreedyMRPathWorstCaseLinearRounds(t *testing.T) {
	// Section 5.4: on an increasing-weight path GreedyMR needs a linear
	// number of rounds (each round matches only the heaviest remaining
	// edge at the path's end).
	ctx := context.Background()
	const k = 24
	g := graph.PathGraph(k)
	res, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < (k-1)/2-1 {
		t.Errorf("rounds = %d on %d-edge path, expected roughly linear (>= %d)",
			res.Rounds, k-1, (k-1)/2-1)
	}
	if err := res.Matching.Validate(1); err != nil {
		t.Error(err)
	}
}

func TestGreedyMRAnyTimeStopping(t *testing.T) {
	// Stopping early must return a feasible prefix of the computation
	// whose value matches the trace at that round.
	ctx := context.Background()
	g := graph.PathGraph(20)
	full, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []int{1, 2, full.Rounds / 2} {
		part, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR, StopAfterRounds: stop})
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Matching.Validate(1); err != nil {
			t.Fatalf("stop=%d: infeasible: %v", stop, err)
		}
		if part.Rounds != stop {
			t.Errorf("stop=%d: ran %d rounds", stop, part.Rounds)
		}
		if want := full.ValueTrace[stop-1]; part.Matching.Value() != want {
			t.Errorf("stop=%d: value %v, want trace value %v", stop, part.Matching.Value(), want)
		}
	}
}

func TestGreedyMRRoundLimit(t *testing.T) {
	ctx := context.Background()
	g := graph.PathGraph(30)
	_, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR, MaxRounds: 2})
	if err == nil {
		t.Error("expected round-limit error")
	}
}

func TestGreedyMREmptyGraph(t *testing.T) {
	ctx := context.Background()
	g := graph.NewBipartite(4, 4)
	g.SetAllCapacities(graph.ItemSide, 2)
	g.SetAllCapacities(graph.ConsumerSide, 2)
	res, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size() != 0 || res.Rounds != 0 {
		t.Errorf("empty graph: size=%d rounds=%d", res.Matching.Size(), res.Rounds)
	}
}

func TestGreedyMRZeroCapacityNodesIgnored(t *testing.T) {
	ctx := context.Background()
	g := graph.NewBipartite(2, 2)
	g.SetCapacity(g.ItemID(0), 0) // excluded
	g.SetCapacity(g.ItemID(1), 1)
	g.SetCapacity(g.ConsumerID(0), 1)
	g.SetCapacity(g.ConsumerID(1), 0) // excluded
	g.AddEdge(g.ItemID(0), g.ConsumerID(0), 9)
	g.AddEdge(g.ItemID(1), g.ConsumerID(0), 1)
	g.AddEdge(g.ItemID(1), g.ConsumerID(1), 5)
	res, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size() != 1 || !res.Matching.Contains(1) {
		t.Errorf("matched %v, want only edge 1", res.Matching.EdgeIndexes())
	}
}

func TestGreedyMRShuffleAccounting(t *testing.T) {
	ctx := context.Background()
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 10, NumConsumers: 10, EdgeProb: 0.4,
		MaxWeight: 1, MaxCapacity: 2, Seed: 1,
	})
	res, err := GreedyMR(ctx, g, GreedyMROptions{MR: testMR})
	if err != nil {
		t.Fatal(err)
	}
	// Per round the job shuffles one self record per live node plus two
	// messages per live edge; totals must be positive and consistent.
	if res.Shuffle.ShuffleRecords <= 0 || res.Shuffle.MapInputRecords <= 0 {
		t.Errorf("shuffle stats empty: %+v", res.Shuffle)
	}
}

// TestConcurrentMatchSharedGraph runs GreedyMR and StackMR at once over
// one fresh graph: both only read it, so GreedyMR must match what it
// matches alone and StackMR must stay feasible (run under -race). The
// graph builds nothing lazily, so its readers share no written state.
func TestConcurrentMatchSharedGraph(t *testing.T) {
	for round := 0; round < 4; round++ {
		g := tiedGraph(int64(round)).Clone()
		want, err := GreedyMR(context.Background(), g.Clone(), GreedyMROptions{MR: testMR})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var greedy, stack *Result
		var greedyErr, stackErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			greedy, greedyErr = GreedyMR(context.Background(), g, GreedyMROptions{MR: testMR})
		}()
		go func() {
			defer wg.Done()
			stack, stackErr = StackMR(context.Background(), g, StackOptions{MR: testMR, Seed: 3})
		}()
		wg.Wait()
		if greedyErr != nil || stackErr != nil {
			t.Fatalf("GreedyMR: %v, StackMR: %v", greedyErr, stackErr)
		}
		if !reflect.DeepEqual(greedy.Matching.EdgeIndexes(), want.Matching.EdgeIndexes()) {
			t.Fatalf("GreedyMR beside StackMR matched %v, alone %v", greedy.Matching.EdgeIndexes(), want.Matching.EdgeIndexes())
		}
		if err := stack.Matching.Validate(2); err != nil {
			t.Fatal(err)
		}
	}
}
