package core

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

func benchInstance(seed int64) *graph.Bipartite {
	return graph.RandomBipartite(graph.RandomConfig{
		NumItems: 1500, NumConsumers: 300, EdgeProb: 0.02,
		MaxWeight: 4, MaxCapacity: 8, Seed: seed,
	})
}

func BenchmarkGreedyCentralizedKernel(b *testing.B) {
	g := benchInstance(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(g)
	}
}

func BenchmarkStackSequentialKernel(b *testing.B) {
	g := benchInstance(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StackSequential(g, 1)
	}
}

func BenchmarkGreedyMRSingleRound(b *testing.B) {
	// Cost of one GreedyMR round on a fixed instance (the per-iteration
	// cost behind Figures 1-3's round counts).
	g := benchInstance(3)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyMR(ctx, g, GreedyMROptions{StopAfterRounds: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaximalBMatching(b *testing.B) {
	g := benchInstance(4)
	ctx := context.Background()
	recs := nodeRecords(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driver := mapreduce.NewDriver(mapreduce.Config{})
		driver.MaxRounds = 64*g.NumEdges() + 256
		ds := mapreduce.PartitionDataset(recs, driver.Partitions())
		if _, err := maximalBMatching(ctx, driver, ds, maximalConfig{seed: int64(i), numEdges: g.NumEdges()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyMRFullRun measures a complete multi-round GreedyMR
// computation on the partition-resident dataflow (state hashed once,
// identity-routed self messages, no per-round flat rebuild).
func BenchmarkGreedyMRFullRun(b *testing.B) {
	g := benchInstance(6)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := GreedyMR(ctx, g, GreedyMROptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Shuffle.LocalRouted == 0 {
			b.Fatal("run identity-routed nothing")
		}
	}
}

// BenchmarkStackMRFullRun measures a complete StackMR computation
// (push and pop phases, tens of jobs).
func BenchmarkStackMRFullRun(b *testing.B) {
	g := benchInstance(7)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := StackMR(ctx, g, StackOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchingValidate(b *testing.B) {
	g := benchInstance(5)
	m := Greedy(g).Matching
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Validate(1); err != nil {
			b.Fatal(err)
		}
	}
}
