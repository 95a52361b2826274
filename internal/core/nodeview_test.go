package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

func TestTopByWeight(t *testing.T) {
	adj := []half{
		{ID: 0, Other: 10, W: 1.0},
		{ID: 1, Other: 11, W: 3.0},
		{ID: 2, Other: 12, W: 2.0},
		{ID: 3, Other: 13, W: 3.0}, // tie with ID 1: lower id wins
	}
	got := topByWeight(adj, 2)
	if len(got) != 2 || adj[got[0]].ID != 1 || adj[got[1]].ID != 3 {
		t.Errorf("topByWeight(2) picked %v", got)
	}
	if got := topByWeight(adj, 0); got != nil {
		t.Errorf("topByWeight(0) = %v", got)
	}
	if got := topByWeight(adj, 10); len(got) != 4 {
		t.Errorf("topByWeight(10) returned %d", len(got))
	}
	if got := topByWeight(nil, 3); len(got) != 0 {
		t.Errorf("topByWeight(nil) = %v", got)
	}
}

func TestNodeRecordsSkipsZeroCapacityAndIsolated(t *testing.T) {
	g := graph.NewBipartite(3, 2)
	g.SetCapacity(g.ItemID(0), 1)
	g.SetCapacity(g.ItemID(1), 0) // zero capacity: excluded
	g.SetCapacity(g.ItemID(2), 1) // isolated: excluded
	g.SetCapacity(g.ConsumerID(0), 1)
	g.SetCapacity(g.ConsumerID(1), 2)
	g.AddEdge(g.ItemID(0), g.ConsumerID(0), 1)
	g.AddEdge(g.ItemID(1), g.ConsumerID(1), 1) // to zero-cap item

	recs, err := nodeDataset(g, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	byNode := map[graph.NodeID]nodeState{}
	recs.Each(func(v graph.NodeID, st nodeState) { byNode[v] = st })
	if _, ok := byNode[g.ItemID(1)]; ok {
		t.Error("zero-capacity node got a record")
	}
	if _, ok := byNode[g.ItemID(2)]; ok {
		t.Error("isolated node got a record")
	}
	if _, ok := byNode[g.ConsumerID(1)]; ok {
		t.Error("consumer with only dead edges got a record")
	}
	if st, ok := byNode[g.ItemID(0)]; !ok || len(st.Adj) != 1 || st.B != 1 {
		t.Errorf("item 0 record wrong: %+v", st)
	}
	// Edge counting: each live edge appears at both endpoints.
	if got := countLiveEdges(recs); got != 2 {
		t.Errorf("countLiveEdges = %d, want 2 (one edge, two views)", got)
	}
}

func TestLayerCap(t *testing.T) {
	st := &stackState{opts: StackOptions{Eps: 0.25}}
	cases := map[int]int{1: 1, 4: 1, 5: 2, 8: 2, 100: 25}
	for b, want := range cases {
		if got := st.layerCap(b); got != want {
			t.Errorf("layerCap(%d) with eps=0.25 = %d, want %d", b, got, want)
		}
	}
	st.opts.Eps = 1
	for _, b := range []int{1, 3, 10} {
		if got := st.layerCap(b); got != b {
			t.Errorf("layerCap(%d) with eps=1 = %d, want b", b, got)
		}
	}
	// Eps above 1 clamps to b (a layer can never exceed the capacity).
	st.opts.Eps = 3
	if got := st.layerCap(4); got != 4 {
		t.Errorf("layerCap(4) with eps=3 = %d, want 4", got)
	}
}

func TestDedupe(t *testing.T) {
	got := dedupe([]int32{1, 1, 2, 3, 3, 3, 4})
	want := []int32{1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedupe = %v", got)
	}
	if got := dedupe(nil); len(got) != 0 {
		t.Errorf("dedupe(nil) = %v", got)
	}
}

// countLiveEdges sums adjacency lengths over a node-view Dataset; every
// live edge is counted once per endpoint, so the result is twice the
// edge count for a consistent view.
func countLiveEdges(recs *mapreduce.Dataset[graph.NodeID, nodeState]) int {
	total := 0
	recs.Each(func(_ graph.NodeID, s nodeState) { total += len(s.Adj) })
	return total
}
