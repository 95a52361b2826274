package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// These tests pin what the partition-resident dataflow promises the
// iterative algorithms: it is bit-identical across shuffle backends, and
// every round's self-addressed records take the identity route.

func dataflowInstance(seed int64) *graph.Bipartite {
	return graph.RandomBipartite(graph.RandomConfig{
		NumItems: 60, NumConsumers: 25, EdgeProb: 0.15,
		MaxWeight: 5, MaxCapacity: 4, Seed: seed,
	})
}

// requireSameResult asserts bit-identical matchings (edge sets and
// floating-point values) and round counts.
func requireSameResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Matching.EdgeIndexes(), b.Matching.EdgeIndexes()) {
		t.Fatalf("%s: the two runs matched different edge sets", name)
	}
	if a.Matching.Value() != b.Matching.Value() {
		t.Fatalf("%s: matching values differ bitwise: %v vs %v",
			name, a.Matching.Value(), b.Matching.Value())
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("%s: round counts differ: %d vs %d", name, a.Rounds, b.Rounds)
	}
}

// TestGreedyMRChainedSpillMatchesMemory: the chained dataflow over the
// spilling backend (radix-sorted per-partition runs) must reproduce the
// chained in-memory result bit for bit.
func TestGreedyMRChainedSpillMatchesMemory(t *testing.T) {
	ctx := context.Background()
	g := dataflowInstance(400)
	mem := mapreduce.Config{Mappers: 3, Reducers: 3}
	spill := mem
	spill.Shuffle = mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleSpill, MemoryBudget: 256}
	rm, err := GreedyMR(ctx, g, GreedyMROptions{MR: mem})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := GreedyMR(ctx, g, GreedyMROptions{MR: spill})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "greedymr-spill", rm, rs)
	if !reflect.DeepEqual(rm.ValueTrace, rs.ValueTrace) {
		t.Fatal("spill value trace differs from memory")
	}
	if rs.Shuffle.SpilledRecords == 0 {
		t.Fatal("spill budget 256 never spilled — the test lost its bite")
	}
}

// TestGreedyMRRoundStatsExposeRouting: the per-round Stats must carry
// the LocalRouted/CrossRouted split for every chained round.
func TestGreedyMRRoundStatsExposeRouting(t *testing.T) {
	ctx := context.Background()
	g := dataflowInstance(500)
	res, err := GreedyMR(ctx, g, GreedyMROptions{MR: mapreduce.Config{Reducers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.RoundStats {
		if s.LocalRouted == 0 {
			t.Fatalf("round %d reported no identity-routed records", i)
		}
		if s.LocalRouted+s.CrossRouted != s.MapOutputRecords {
			t.Fatalf("round %d: routed %d+%d != map output %d",
				i, s.LocalRouted, s.CrossRouted, s.MapOutputRecords)
		}
	}
}

// TestStackMRIdentityRoutes: the stack algorithms chain their rounds
// partition-resident too, so a run identity-routes records.
func TestStackMRIdentityRoutes(t *testing.T) {
	res, err := StackMR(context.Background(), dataflowInstance(100),
		StackOptions{MR: mapreduce.Config{Mappers: 3, Reducers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shuffle.LocalRouted == 0 {
		t.Fatal("stackmr identity-routed nothing")
	}
}
