package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// goldenGraph builds the two instances TestMaximalMatchingGolden pins.
// "mixed" has capacities 1…4, so marking and selection draw a strict
// subset of most adjacency lists (pickRandom / pickFrom with k < n) and
// the strict variant meets overflow; "unit" has b(v) = 1 everywhere, so
// nearly every iteration leaves some node with two selected edges and
// matchingMap must draw which one to keep.
func goldenGraph(name string) *graph.Bipartite {
	if name == "unit" {
		return graph.RandomBipartite(graph.RandomConfig{
			NumItems: 14, NumConsumers: 11, EdgeProb: 0.3,
			MaxWeight: 3, MaxCapacity: 1, Seed: 42,
		})
	}
	return graph.RandomBipartite(graph.RandomConfig{
		NumItems: 12, NumConsumers: 9, EdgeProb: 0.4,
		MaxWeight: 5, MaxCapacity: 4, Seed: 41,
	})
}

// TestMaximalMatchingGolden pins what the stack algorithms compute —
// matched edge ids, MapReduce rounds and value, as literals — for seeds
// 1–3 on both golden graphs, on the memory and the spill backend. Every
// number below depends on each node's random draws (the three seeds
// disagree), so a change to where or how the per-node sources are built,
// or to how the stages tell marked, selected and dropped edges apart,
// cannot move a draw without failing here. The literals were recorded
// before the maximal-matching maps and reduces were touched; if this
// test fails, the algorithm's output moved — do not edit them.
func TestMaximalMatchingGolden(t *testing.T) {
	golden := []struct {
		graph, algo string
		seed        int64
		rounds      int
		value       float64
		edges       []int32
	}{
		{"mixed", "StackMR", 1, 18, 39.70314890227042, []int32{3, 6, 7, 8, 9, 10, 13, 18, 23, 24, 28, 31, 36, 38, 41}},
		{"mixed", "StackMR", 2, 14, 42.872950661872, []int32{2, 6, 7, 8, 9, 10, 14, 18, 19, 23, 27, 28, 29, 31, 35, 38}},
		{"mixed", "StackMR", 3, 18, 39.234971324857895, []int32{2, 6, 7, 8, 10, 11, 15, 17, 18, 19, 21, 24, 29, 34, 38}},
		{"mixed", "StackGreedyMR", 1, 15, 45.946003487052174, []int32{0, 5, 6, 7, 9, 10, 12, 19, 23, 30, 31, 34, 39, 40}},
		{"mixed", "StackGreedyMR", 2, 15, 43.943146585213235, []int32{2, 5, 6, 7, 9, 10, 12, 23, 27, 31, 34, 35, 38, 39}},
		{"mixed", "StackGreedyMR", 3, 22, 46.112194203139076, []int32{2, 5, 6, 7, 9, 10, 14, 18, 19, 23, 28, 29, 31, 34, 38}},
		{"mixed", "StackMRStrict", 1, 18, 39.70314890227042, []int32{3, 6, 7, 8, 9, 10, 13, 18, 23, 24, 28, 31, 36, 38, 41}},
		{"mixed", "StackMRStrict", 2, 24, 42.83592873346092, []int32{2, 6, 7, 8, 9, 10, 14, 18, 23, 27, 28, 29, 31, 35, 38}},
		{"mixed", "StackMRStrict", 3, 23, 39.10318488211982, []int32{2, 6, 7, 10, 11, 15, 17, 18, 21, 24, 29, 34, 38}},
		{"unit", "StackMR", 1, 18, 21.29908106000571, []int32{0, 6, 11, 14, 16, 25, 29, 33, 37, 40, 43}},
		{"unit", "StackMR", 2, 11, 19.908369820852073, []int32{2, 7, 12, 16, 19, 22, 28, 30, 32, 42, 46}},
		{"unit", "StackMR", 3, 18, 21.22279664023271, []int32{11, 12, 17, 18, 25, 31, 32, 33, 35, 41, 46}},
		{"unit", "StackGreedyMR", 1, 11, 25.98521406983595, []int32{3, 9, 12, 16, 23, 25, 29, 33, 37, 42, 43}},
		{"unit", "StackGreedyMR", 2, 11, 27.46298179471574, []int32{3, 9, 12, 17, 18, 23, 25, 33, 35, 42, 43}},
		{"unit", "StackGreedyMR", 3, 11, 27.46298179471574, []int32{3, 9, 12, 17, 18, 23, 25, 33, 35, 42, 43}},
		{"unit", "StackMRStrict", 1, 18, 21.29908106000571, []int32{0, 6, 11, 14, 16, 25, 29, 33, 37, 40, 43}},
		{"unit", "StackMRStrict", 2, 11, 19.908369820852073, []int32{2, 7, 12, 16, 19, 22, 28, 30, 32, 42, 46}},
		{"unit", "StackMRStrict", 3, 18, 21.22279664023271, []int32{11, 12, 17, 18, 25, 31, 32, 33, 35, 41, 46}},
	}
	algos := map[string]func(context.Context, *graph.Bipartite, StackOptions) (*Result, error){
		"StackMR": StackMR, "StackGreedyMR": StackGreedyMR, "StackMRStrict": StackMRStrict,
	}
	backends := []struct {
		name string
		mr   mapreduce.Config
	}{
		{"memory", testMR},
		{"spill", spillMR(64)},
	}
	for _, want := range golden {
		g := goldenGraph(want.graph)
		for _, b := range backends {
			t.Run(fmt.Sprintf("%s/%s/seed%d/%s", want.graph, want.algo, want.seed, b.name), func(t *testing.T) {
				res, err := algos[want.algo](context.Background(), g, StackOptions{MR: b.mr, Seed: want.seed})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Matching.EdgeIndexes(); !reflect.DeepEqual(got, want.edges) {
					t.Errorf("matched edges:\n got %v\nwant %v", got, want.edges)
				}
				if res.Rounds != want.rounds {
					t.Errorf("rounds: got %d, want %d", res.Rounds, want.rounds)
				}
				if got := res.Matching.Value(); got != want.value {
					t.Errorf("value: got %v, want %v", got, want.value)
				}
			})
		}
	}
}
