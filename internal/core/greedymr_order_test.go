package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// The reference GreedyMR round: what greedyMap/greedyReduce did before
// the adjacency was ordered once up front. Every round re-selects the
// top-b edges of the incidence-ordered adjacency with topByWeight — in
// the mapper and again in the reducer — and intersects them with the
// neighbors' proposals through a sorted mark slice. The differential
// test below holds the prefix-proposal round to this one, edge for edge
// and record for record.

func refGreedyMap(_ graph.NodeID, st nodeState, out mapreduce.Emitter[graph.NodeID, edgeMsg]) error {
	chosen := topByWeight(st.Adj, st.B)
	for i, h := range st.Adj {
		out.Emit(h.Other, edgeFlag(h.ID, slices.Contains(chosen, int32(i))))
	}
	return nil
}

func refGreedyReduce(g *graph.Bipartite) mapreduce.StateReduceFunc[graph.NodeID, nodeState, edgeMsg, graph.NodeID, nodeState] {
	return func(u graph.NodeID, self *nodeState, msgs []edgeMsg, out mapreduce.Emitter[graph.NodeID, nodeState]) error {
		if self == nil {
			return nil
		}
		marks := slices.Sorted(slices.Values(msgs)) // edge<<1 | proposed
		has := func(mark edgeMsg) bool {
			_, ok := slices.BinarySearch(marks, mark)
			return ok
		}
		mine := topByWeight(self.Adj, self.B)
		next := nodeState{B: self.B}
		for i, h := range self.Adj {
			proposed := has(edgeFlag(h.ID, true))
			switch {
			case !proposed && !has(edgeFlag(h.ID, false)):
				// Neighbor is gone: drop the edge.
			case proposed && slices.Contains(mine, int32(i)):
				next.B--
				if g.SideOf(u) == graph.ItemSide {
					out.(mapreduce.SideEmitter).EmitSide(uint64(h.ID))
				}
			default:
				next.Adj = append(next.Adj, h)
			}
		}
		if next.B > 0 && len(next.Adj) > 0 {
			out.Emit(u, next)
		}
		return nil
	}
}

// greedyLoop is GreedyMR's round loop over an arbitrary round job, so
// the reference round can run end to end and the real round's state can
// be inspected between rounds (check, when set, sees every round's
// surviving state — which on dist moves it to the coordinator, so the
// inspected run also covers rounds whose input is not worker-resident).
// byWeight is the adjacency order of the round-0 node view (nodeDataset).
func greedyLoop(
	t *testing.T, g *graph.Bipartite, mr mapreduce.Config, job string, byWeight bool,
	mapFn mapreduce.MapFunc[graph.NodeID, nodeState, graph.NodeID, edgeMsg],
	reduceFn mapreduce.StateReduceFunc[graph.NodeID, nodeState, edgeMsg, graph.NodeID, nodeState],
	check func(round int, v graph.NodeID, st nodeState),
) *Result {
	t.Helper()
	ctx := context.Background()
	driver := mapreduce.NewDriver(mr)
	driver.MaxRounds = 4*g.NumEdges() + 16
	var matched []int32
	var trace []float64
	state, err := nodeDataset(g, driver.Partitions(), byWeight)
	if err != nil {
		t.Fatalf("%s: %v", job, err)
	}
	final, err := mapreduce.Loop(ctx, driver, state, func(
		ctx context.Context, round int, st *mapreduce.Dataset[graph.NodeID, nodeState],
	) (*mapreduce.Dataset[graph.NodeID, nodeState], error) {
		next, stats, err := mapreduce.RunStateDS(ctx, driver.Config(job), st, mapFn, reduceFn)
		if err != nil {
			return nil, err
		}
		if err := driver.Observe(stats); err != nil {
			return nil, err
		}
		if check != nil {
			if err := next.Materialize(); err != nil {
				return nil, err
			}
			next.Each(func(v graph.NodeID, st nodeState) { check(round, v, st) })
		}
		var roundMatched []int32
		for _, part := range next.Side() {
			for _, ei := range part {
				roundMatched = append(roundMatched, int32(ei))
			}
		}
		slices.Sort(roundMatched)
		matched = mergeSortedInt32(matched, roundMatched)
		trace = append(trace, matchedValue(g, matched))
		return next, nil
	})
	final.Recycle()
	if err != nil {
		t.Fatalf("%s: %v", job, err)
	}
	return &Result{
		Matching:   NewMatching(g, matched),
		Rounds:     driver.Rounds(),
		Shuffle:    driver.Total(),
		ValueTrace: trace,
	}
}

// tiedGraph draws a random bipartite graph whose weights come from a
// handful of values — so nearly every top-b selection is decided by the
// edge-id tie-break — and whose capacities span 1…deg(v).
func tiedGraph(seed int64) *graph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	items, consumers := 14+rng.Intn(8), 10+rng.Intn(6)
	g := graph.NewBipartite(items, consumers)
	for i := 0; i < items; i++ {
		for j := 0; j < consumers; j++ {
			if rng.Float64() < 0.35 {
				g.AddEdge(g.ItemID(i), g.ConsumerID(j), float64(1+rng.Intn(3)))
			}
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if deg := degree(g, graph.NodeID(v)); deg > 0 {
			g.SetCapacity(graph.NodeID(v), float64(1+rng.Intn(deg)))
		}
	}
	return g
}

// TestGreedyMRPrefixProposalsMatchPerRoundSelection is the differential
// test of the ordered adjacency: on seeded random graphs with heavy
// weight ties and capacities 1…deg, GreedyMR (adjacency ordered once,
// proposals = the Adj[:B] prefix, edge-stamp intersection) must agree
// with the per-round topByWeight round it replaced on the matched edge
// set, the value trace, the round count and the number of shuffled
// records — on the memory, spill and dist backends — and every round's
// surviving adjacency must still be in (weight desc, edge id asc) order,
// the invariant the prefix rule rests on.
func TestGreedyMRPrefixProposalsMatchPerRoundSelection(t *testing.T) {
	cl := startWorkers(t, 2)
	backends := []struct {
		name string
		mr   mapreduce.Config
	}{
		{"memory", mapreduce.Config{Mappers: 2, Reducers: 2}},
		{"spill", spillMR(64)},
		{"dist", mapreduce.Config{
			Mappers: 2, Reducers: 2,
			Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
			Dist:    cl,
		}},
	}
	for seed := int64(0); seed < 12; seed++ {
		g := tiedGraph(seed)
		RegisterDistJobs(g)
		mapreduce.RegisterDistJob("greedymr-round-ref",
			func([]byte) (mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, edgeMsg, graph.NodeID, nodeState], error) {
				return mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, edgeMsg, graph.NodeID, nodeState]{
					Map:         refGreedyMap,
					StateReduce: refGreedyReduce(g),
				}, nil
			})
		for _, b := range backends {
			t.Run(fmt.Sprintf("seed%d/%s", seed, b.name), func(t *testing.T) {
				ref := greedyLoop(t, g, b.mr, "greedymr-round-ref", false, refGreedyMap, refGreedyReduce(g), nil)
				if ref.Matching.Size() == 0 || ref.Rounds < 2 {
					t.Fatalf("degenerate instance: %d edges matched in %d rounds", ref.Matching.Size(), ref.Rounds)
				}
				got, err := GreedyMR(context.Background(), g, GreedyMROptions{MR: b.mr})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Matching.EdgeIndexes(), ref.Matching.EdgeIndexes()) {
					t.Fatalf("matched edges differ:\n got %v\nwant %v", got.Matching.EdgeIndexes(), ref.Matching.EdgeIndexes())
				}
				if !reflect.DeepEqual(got.ValueTrace, ref.ValueTrace) {
					t.Fatalf("value trace differs:\n got %v\nwant %v", got.ValueTrace, ref.ValueTrace)
				}
				if got.Rounds != ref.Rounds {
					t.Fatalf("rounds: got %d, want %d", got.Rounds, ref.Rounds)
				}
				if got.Shuffle.ShuffleRecords != ref.Shuffle.ShuffleRecords {
					t.Fatalf("shuffled records: got %d, want %d", got.Shuffle.ShuffleRecords, ref.Shuffle.ShuffleRecords)
				}

				// The same rounds again with the state in view: the order
				// established by nodeDataset must survive every reduce.
				states := 0
				seen := greedyLoop(t, g, b.mr, "greedymr-round", true, greedyMap, greedyReduce(g),
					func(round int, v graph.NodeID, st nodeState) {
						states++
						if !slices.IsSortedFunc(st.Adj, byWeightThenID) {
							t.Fatalf("round %d: node %d's surviving adjacency left (weight desc, id asc) order: %v", round, v, st.Adj)
						}
					})
				if states == 0 {
					t.Fatal("no surviving state was inspected")
				}
				if !reflect.DeepEqual(seen.ValueTrace, got.ValueTrace) {
					t.Fatal("the inspected run diverged from GreedyMR")
				}
			})
		}
	}
}
