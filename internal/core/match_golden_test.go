package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// matchGoldenGraph is the one instance TestMatchGolden pins: 64 items ×
// 56 consumers, about 2k edges whose weights come from {0.3, 1.1, 2.7} (so the
// top-b selections are mostly decided by the edge-id tie-break and the
// sums are inexact, hence order-sensitive, while most terms repeat), capacities 1…4 with a third of the
// nodes at capacity 1, and item 0 isolated.
func matchGoldenGraph() *graph.Bipartite {
	rng := rand.New(rand.NewSource(23))
	const items, consumers = 64, 56
	g := graph.NewBipartite(items, consumers)
	for i := 1; i < items; i++ { // item 0 keeps no edge
		for j := 0; j < consumers; j++ {
			if rng.Float64() < 0.57 {
				g.AddEdge(g.ItemID(i), g.ConsumerID(j), [3]float64{0.3, 1.1, 2.7}[rng.Intn(3)])
			}
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		b := 1
		if rng.Intn(3) > 0 {
			b = 2 + rng.Intn(3)
		}
		g.SetCapacity(graph.NodeID(v), float64(b))
	}
	return g
}

// roundCounters renders the record counters of every job of a run, one
// line per job in execution order.
func roundCounters(rounds []mapreduce.Stats) string {
	var sb strings.Builder
	for i, s := range rounds {
		fmt.Fprintf(&sb, "%d %s in=%d mapout=%d shuffle=%d local=%d groups=%d out=%d\n", i, s.Name,
			s.MapInputRecords, s.MapOutputRecords, s.ShuffleRecords, s.LocalRouted, s.ReduceGroups, s.ReduceOutputRecords)
	}
	return sb.String()
}

func hexSum(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// noTrace is hexSum of no bytes: the stack algorithms report no value
// trace, and GreedyMR no duals.
const noTrace = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

// TestMatchGolden pins what GreedyMR, StackMR, StackGreedyMR and
// StackMRStrict compute and what their jobs count, on the memory backend,
// on the spill backend under a budget every early round overflows several
// times, and on two loopback dist workers: the matched edge ids, the value
// trace bit for bit, the dual certificate's bound and every node's dual
// bit for bit, the number of jobs, and for every job its MapInputRecords,
// MapOutputRecords, ShuffleRecords, LocalRouted, ReduceGroups and
// ReduceOutputRecords. StackMRStrict shares StackMR's push phase, so its
// duals are StackMR's; its row pins the δ(e) its overflow phase orders
// edges by, through the edges it picks. Every literal was recorded from
// an earlier build; if this test fails, an algorithm's output or a job's
// record accounting moved — do not edit them. (The stack algorithms'
// ReduceOutputRecords were re-pinned once, with nothing else, when
// mm-cleanup stopped emitting a node that dies while it reports a match
// and stack-update started emitting every record.) A counter mismatch logs the run's per-job table.
func TestMatchGolden(t *testing.T) {
	g := matchGoldenGraph()
	if n := g.NumEdges(); n != 2026 || degree(g, g.ItemID(0)) != 0 {
		t.Fatalf("the golden graph moved: %d edges, item 0 has degree %d", n, degree(g, g.ItemID(0)))
	}
	RegisterDistJobs(g)
	cl := startWorkers(t, 2)
	backends := []struct {
		name string
		mr   mapreduce.Config
	}{
		{"memory", mapreduce.Config{Mappers: 3, Reducers: 4}},
		{"spill", mapreduce.Config{Mappers: 3, Reducers: 4,
			Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleSpill, MemoryBudget: 256}}},
		{"dist", mapreduce.Config{Mappers: 3, Reducers: 4,
			Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist}, Dist: cl}},
	}
	ctx := context.Background()
	golden := []struct {
		algo   string
		run    func(mr mapreduce.Config) (*Result, error)
		rounds int
		// totals over the run's jobs: MapInputRecords, MapOutputRecords,
		// ShuffleRecords, LocalRouted, ReduceGroups, ReduceOutputRecords
		totals [6]int64
		// SHA-256 of the matched edge ids, the value trace's bits, every
		// node's Certificate.Y bits, and the per-job counter table
		edges, trace, duals, counters string
		value                         float64
		bound                         uint64 // Float64bits of Certificate.Bound(), 0 without a certificate
	}{
		{
			algo: "GreedyMR",
			run: func(mr mapreduce.Config) (*Result, error) {
				return GreedyMR(ctx, g, GreedyMROptions{MR: mr})
			},
			rounds:   22,
			totals:   [6]int64{1203, 26751, 26751, 1203, 1304, 1084},
			edges:    "a661e9123c741e566d223407942ec5ddeeea25485391b862903c1601b53d967e",
			trace:    "bce592245d76cb96c7a56d42eea9017ece2ccb90a3389caa282a30d6433052ee",
			duals:    noTrace,
			counters: "6c7ca46170a6836cb1ed6ecb173081774184f6919df470c466ea0e8dbe7b6709",
			value:    347.2999999999993,
		},
		{
			algo: "StackMR",
			run: func(mr mapreduce.Config) (*Result, error) {
				return StackMR(ctx, g, StackOptions{MR: mr, Seed: 11})
			},
			rounds:   26,
			totals:   [6]int64{1463, 28372, 28372, 1470, 1470, 1186},
			edges:    "26b81da0d3e3e995443337e855eddf8aa4eeb145f024e532bfd92d53e0a4ac4d",
			trace:    noTrace,
			duals:    "bb878cba57cb72d4cd6bd6a2374f9f0199d25ed3b857bcbc93759f122d9576a1",
			counters: "bad8272bc6bf231479130877e93f0b51e26958a113246cacba2060c22afcd6d1",
			value:    230.5999999999997,
			bound:    0x4091eb1555555554,
		},
		{
			algo: "StackGreedyMR",
			run: func(mr mapreduce.Config) (*Result, error) {
				return StackGreedyMR(ctx, g, StackOptions{MR: mr, Seed: 11})
			},
			rounds:   27,
			totals:   [6]int64{1961, 43731, 43731, 1977, 1977, 1739},
			edges:    "029d413ef3a20974ec021ac980c843601d6da7f4bca2695cc9713f9dd43fdc19",
			trace:    noTrace,
			duals:    "f7e97b4796309c0f557a1a2134fb88fca254fae31ca8b5c807f24ea34b0853c6",
			counters: "5b9ab5e7852d94d902936edd34f503e32ee63692ca4ce95a241d2c19ee5a6d39",
			value:    350.4999999999992,
			bound:    0x409b620000000000,
		},
		{
			algo: "StackMRStrict",
			run: func(mr mapreduce.Config) (*Result, error) {
				return StackMRStrict(ctx, g, StackOptions{MR: mr, Seed: 11})
			},
			rounds:   35,
			totals:   [6]int64{1516, 28469, 28469, 1543, 1523, 1242},
			edges:    "193995285b5d5bb8cd0884a554323ae339e36d3ae591bbafae54603b758868b3",
			trace:    noTrace,
			duals:    "bb878cba57cb72d4cd6bd6a2374f9f0199d25ed3b857bcbc93759f122d9576a1",
			counters: "602e578c2496abc9e3f95e28fe3b136537aae79c81dfebe4da968824f5e628fd",
			value:    228.79999999999964,
			bound:    0x4091eb1555555554,
		},
	}
	for _, want := range golden {
		for _, b := range backends {
			t.Run(want.algo+"/"+b.name, func(t *testing.T) {
				res, err := want.run(b.mr)
				if err != nil {
					t.Fatal(err)
				}
				var edges, trace []byte
				for _, ei := range res.Matching.EdgeIndexes() {
					edges = binary.LittleEndian.AppendUint32(edges, uint32(ei))
				}
				for _, v := range res.ValueTrace {
					trace = binary.LittleEndian.AppendUint64(trace, math.Float64bits(v))
				}
				var bound uint64
				var duals []byte
				if res.Certificate != nil {
					bound = math.Float64bits(res.Certificate.Bound())
					for _, y := range res.Certificate.Y {
						duals = binary.LittleEndian.AppendUint64(duals, math.Float64bits(y))
					}
				}
				tot := res.Shuffle
				got := [6]int64{tot.MapInputRecords, tot.MapOutputRecords, tot.ShuffleRecords,
					tot.LocalRouted, tot.ReduceGroups, tot.ReduceOutputRecords}
				table := roundCounters(res.RoundStats)
				if res.Rounds != want.rounds {
					t.Errorf("rounds: got %d, want %d", res.Rounds, want.rounds)
				}
				if h := hexSum(edges); h != want.edges {
					t.Errorf("matched edges moved (%d edges, SHA-256 %s)", res.Matching.Size(), h)
				}
				if v := res.Matching.Value(); v != want.value {
					t.Errorf("value: got %v, want %v", v, want.value)
				}
				if h := hexSum(trace); h != want.trace {
					t.Errorf("value trace moved (%d entries, SHA-256 %s)", len(res.ValueTrace), h)
				}
				if bound != want.bound {
					t.Errorf("certificate bound: got bits %#x, want %#x", bound, want.bound)
				}
				if h := hexSum(duals); h != want.duals {
					t.Errorf("per-node duals moved (%d nodes, SHA-256 %s)", len(duals)/8, h)
				}
				if got != want.totals {
					t.Errorf("record counters, summed over the jobs (in, mapout, shuffle, local, groups, out):\n got %v\nwant %v", got, want.totals)
				}
				if h := hexSum([]byte(table)); h != want.counters {
					t.Errorf("per-job record counters moved (SHA-256 %s):\n%s", h, table)
				}
				if b.name == "spill" && tot.SpillRuns < 3 {
					t.Errorf("the spill run wrote %d runs, want at least 3", tot.SpillRuns)
				}
			})
		}
	}
}
