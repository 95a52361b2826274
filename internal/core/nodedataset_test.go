package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// incidentEdges lists the indexes of v's edges, ascending. The graph
// keeps no incidence index, so the tests count from Edges().
func incidentEdges(g *graph.Bipartite, v graph.NodeID) []int32 {
	var out []int32
	for i, e := range g.Edges() {
		if e.Item == v || e.Consumer == v {
			out = append(out, int32(i))
		}
	}
	return out
}

// degree counts v's edges.
func degree(g *graph.Bipartite, v graph.NodeID) int { return len(incidentEdges(g, v)) }

// naiveNodeRecords is the differential test's reference for the round-0
// node view: one record per node of positive capacity with at least one
// incident edge whose other endpoint also has positive capacity, in
// ascending node order, its adjacency appended edge by edge in incidence
// order and, when byWeight, sorted with slices.SortFunc afterwards.
// Nothing is shared between nodes and nothing is sized ahead.
func naiveNodeRecords(g *graph.Bipartite, byWeight bool) []mapreduce.Pair[graph.NodeID, nodeState] {
	var recs []mapreduce.Pair[graph.NodeID, nodeState]
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if g.IntCapacity(id) == 0 {
			continue
		}
		var adj []half
		for _, ei := range incidentEdges(g, id) {
			e := g.Edge(int(ei))
			if g.IntCapacity(e.Other(id)) > 0 {
				adj = append(adj, half{ID: ei, Other: e.Other(id), W: e.Weight})
			}
		}
		if len(adj) == 0 {
			continue
		}
		if byWeight {
			slices.SortFunc(adj, byWeightThenID)
		}
		recs = append(recs, mapreduce.P(id, nodeState{B: g.IntCapacity(id), Adj: adj}))
	}
	return recs
}

// checkNodeDataset holds the round-0 node view of g (nodeView.build
// under mapreduce.BuildDataset, as nodeDataset builds it) to the naive
// reference partitioned by the engine: per partition the same keys in
// the same order, equal B, element-wise equal Adj with no spare capacity,
// and adjacency regions that do not overlap — refilling every node's
// Adj[:0] up to its capacity with a mark of its own must leave every
// other node's list holding only its own marks. Every partition is then
// built a second time from the same view, all at once again, and must
// come out equal to the first build: the view's shared per-node cursors
// carry nothing from one build into the next.
func checkNodeDataset(t *testing.T, g *graph.Bipartite, parts int, byWeight bool) {
	t.Helper()
	want := mapreduce.PartitionDataset(naiveNodeRecords(g, byWeight), parts)
	view, err := newNodeView(g, byWeight)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mapreduce.BuildDataset(parts, view.build)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Aligned() || got.Partitions() != want.Partitions() {
		t.Fatalf("aligned %v with %d partitions, want aligned with %d", got.Aligned(), got.Partitions(), want.Partitions())
	}
	for p := 0; p < want.Partitions(); p++ {
		gp, wp := got.Part(p), want.Part(p)
		if len(gp) != len(wp) {
			t.Fatalf("partition %d holds %d records, want %d", p, len(gp), len(wp))
		}
		for j := range wp {
			if gp[j].Key != wp[j].Key {
				t.Fatalf("partition %d record %d is node %d, want %d", p, j, gp[j].Key, wp[j].Key)
			}
			gs, ws := gp[j].Value, wp[j].Value
			if gs.B != ws.B {
				t.Fatalf("node %d: B = %d, want %d", wp[j].Key, gs.B, ws.B)
			}
			if !slices.Equal(gs.Adj, ws.Adj) {
				t.Fatalf("node %d: adjacency\n got %v\nwant %v", wp[j].Key, gs.Adj, ws.Adj)
			}
			if cap(gs.Adj) != len(gs.Adj) {
				t.Fatalf("node %d: cap(Adj) = %d over %d entries: an in-place compaction could reach the next node's list",
					wp[j].Key, cap(gs.Adj), len(gs.Adj))
			}
		}
	}
	again, err := mapreduce.BuildDataset(parts, view.build)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < got.Partitions(); p++ {
		if !slices.EqualFunc(again.Part(p), got.Part(p), func(a, b mapreduce.Pair[graph.NodeID, nodeState]) bool {
			return a.Key == b.Key && a.Value.B == b.Value.B && slices.Equal(a.Value.Adj, b.Value.Adj)
		}) {
			t.Fatalf("partition %d built again from the same view\n got %v\nwant %v", p, again.Part(p), got.Part(p))
		}
	}
	got.Each(func(v graph.NodeID, s nodeState) {
		adj := s.Adj[:0]
		for i := 0; i < len(s.Adj); i++ {
			adj = append(adj, half{ID: -1, Other: v})
		}
	})
	got.Each(func(v graph.NodeID, s nodeState) {
		for i, h := range s.Adj {
			if h.Other != v {
				t.Fatalf("node %d: entry %d was overwritten by node %d refilling its own list", v, i, h.Other)
			}
		}
	})
}

// TestNodeDatasetMatchesSerial is the differential test of the round-0
// node view: what nodeDataset builds — however it builds it — must be,
// bit for bit and partition by partition, the naive serial records handed
// to mapreduce.PartitionDataset, for both adjacency orders. The state
// job's merge join rests on the key order, GreedyMR's prefix proposals on
// the weight order, and the round loops' in-place compaction on every
// node owning its region alone. Under -race it is also the test that the
// builder's goroutines write disjoint memory.
func TestNodeDatasetMatchesSerial(t *testing.T) {
	partCounts := []int{1, 2, 3, 4, 7}
	orders := []bool{true, false}
	for seed := int64(1); seed <= 20; seed++ {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: 30 + int(seed), NumConsumers: 12 + int(seed%5), EdgeProb: 0.3,
			MaxWeight: 3, MaxCapacity: 4, Seed: seed,
		})
		if seed%2 == 0 {
			// Dead nodes inside the random instance: every third item
			// loses its capacity, and with it its neighbours' edges to it.
			for i := 0; i < g.NumItems(); i += 3 {
				g.SetCapacity(g.ItemID(i), 0)
			}
		}
		for _, parts := range partCounts {
			for _, byWeight := range orders {
				t.Run(fmt.Sprintf("seed%d/parts%d/byWeight=%v", seed, parts, byWeight), func(t *testing.T) {
					checkNodeDataset(t, g, parts, byWeight)
				})
			}
		}
	}

	hand := map[string]func() *graph.Bipartite{
		"empty": func() *graph.Bipartite { return graph.NewBipartite(0, 0) },
		"no-edges": func() *graph.Bipartite {
			g := graph.NewBipartite(3, 2)
			g.SetAllCapacities(graph.ItemSide, 2)
			g.SetAllCapacities(graph.ConsumerSide, 2)
			return g
		},
		"zero-capacity-node": func() *graph.Bipartite {
			g := graph.NewBipartite(2, 2)
			g.SetCapacity(g.ItemID(0), 1)
			g.SetCapacity(g.ConsumerID(0), 1)
			g.SetCapacity(g.ConsumerID(1), 2)
			g.AddEdge(g.ItemID(0), g.ConsumerID(0), 1)
			g.AddEdge(g.ItemID(1), g.ConsumerID(0), 2) // item 1 has capacity 0
			g.AddEdge(g.ItemID(1), g.ConsumerID(1), 3)
			return g
		},
		"isolated-node": func() *graph.Bipartite {
			g := graph.NewBipartite(3, 1)
			g.SetAllCapacities(graph.ItemSide, 1)
			g.SetAllCapacities(graph.ConsumerSide, 3)
			g.AddEdge(g.ItemID(0), g.ConsumerID(0), 1)
			g.AddEdge(g.ItemID(2), g.ConsumerID(0), 1) // item 1 has no edge
			return g
		},
		"all-neighbours-dead": func() *graph.Bipartite {
			// Consumer 0 has capacity and three edges, all to items
			// without capacity: it gets no record.
			g := graph.NewBipartite(4, 2)
			g.SetCapacity(g.ItemID(3), 1)
			g.SetAllCapacities(graph.ConsumerSide, 2)
			for i := 0; i < 3; i++ {
				g.AddEdge(g.ItemID(i), g.ConsumerID(0), float64(i+1))
			}
			g.AddEdge(g.ItemID(3), g.ConsumerID(1), 1)
			return g
		},
		"fractional-capacities": func() *graph.Bipartite {
			// 0.2 rounds up to 1, 2.5 to 3; 0 stays dead.
			g := graph.NewBipartite(3, 3)
			for i, b := range []float64{0.2, 2.5, 0} {
				g.SetCapacity(g.ItemID(i), b)
				g.SetCapacity(g.ConsumerID(i), b)
			}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					g.AddEdge(g.ItemID(i), g.ConsumerID(j), float64(1+i+j)/2)
				}
			}
			return g
		},
		"hub": func() *graph.Bipartite {
			// One consumer adjacent to every item; the other consumers
			// see one item each.
			g := graph.NewBipartite(40, 5)
			g.SetAllCapacities(graph.ItemSide, 2)
			g.SetAllCapacities(graph.ConsumerSide, 3)
			for i := 0; i < 40; i++ {
				g.AddEdge(g.ItemID(i), g.ConsumerID(0), float64(1+i%7))
				if i < 4 {
					g.AddEdge(g.ItemID(i), g.ConsumerID(1+i), 1)
				}
			}
			return g
		},
		"weight-ties": func() *graph.Bipartite { return tiedGraph(3) },
		"all-weights-equal": func() *graph.Bipartite {
			g := graph.NewBipartite(9, 6)
			g.SetAllCapacities(graph.ItemSide, 1)
			g.SetAllCapacities(graph.ConsumerSide, 2)
			for i := 8; i >= 0; i-- { // a consumer's neighbours descend while its edge ids ascend
				for j := 0; j < 6; j++ {
					if (i+j)%2 == 0 {
						g.AddEdge(g.ItemID(i), g.ConsumerID(j), 1.5)
					}
				}
			}
			return g
		},
	}
	for name, build := range hand {
		g := build()
		for _, parts := range partCounts {
			for _, byWeight := range orders {
				t.Run(fmt.Sprintf("%s/parts%d/byWeight=%v", name, parts, byWeight), func(t *testing.T) {
					checkNodeDataset(t, g, parts, byWeight)
				})
			}
		}
	}
}
