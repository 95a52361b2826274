package core

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/dataset"
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
	// The matching's start copies the adjacency it flags, so one view
	// serves every iteration.
	recs, err := nodeDataset(g, mapreduce.NewDriver(mapreduce.Config{}).Partitions(), false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driver := mapreduce.NewDriver(mapreduce.Config{})
		driver.MaxRounds = 64*g.NumEdges() + 256
		if _, err := maximalBMatching(ctx, driver, flaggedView(recs), maximalConfig{seed: int64(i), numEdges: g.NumEdges()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeDataset measures the prologue of every MapReduce matching
// on its own: the round-0 node view of a zipf-shaped graph (the shape of
// the match-zipf-* benchmark workloads at a third of their size), built
// into four partitions, weight-ordered as GreedyMR wants it and in
// incidence order as the stack algorithms do. Bytes are the halves
// written.
func BenchmarkNodeDataset(b *testing.B) {
	g := dataset.Synthetic(dataset.SyntheticConfig{
		NumItems: 100000, NumConsumers: 10000, MeanDegree: 10,
		DegreeAlpha: 1.4, WeightScale: 1, CapacityAlpha: 1.2,
		CapacityMax: 200, Seed: 1,
	})
	for _, byWeight := range []bool{true, false} {
		b.Run(fmt.Sprintf("byWeight=%v", byWeight), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds, err := nodeDataset(g, 4, byWeight)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.SetBytes(int64(countLiveEdges(ds)) * int64(unsafe.Sizeof(half{})))
				}
			}
		})
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
