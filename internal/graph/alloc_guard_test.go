//go:build !race

package graph

import "testing"

// TestAllocGuardBuildAdj: the adjacency index of a graph is three
// allocations — the list headers, the degree counts and the one array all
// lists are carved from — however many nodes the graph has (the limit
// leaves one spare). One list per node was |V| + 2 of them, paid by every
// pipeline job (each builds a fresh graph) before its first round.
func TestAllocGuardBuildAdj(t *testing.T) {
	const runs = 5
	for _, items := range []int{500, 10000} {
		g := RandomBipartite(RandomConfig{
			NumItems: items, NumConsumers: items / 10, EdgeProb: 20 / float64(items),
			MaxWeight: 2, MaxCapacity: 3, Seed: 5,
		})
		fresh := make([]*Bipartite, runs+1) // AllocsPerRun warms up with one more call
		for i := range fresh {
			fresh[i] = g.Clone()
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			fresh[next].IncidentEdges(0)
			next++
		})
		t.Logf("%d nodes, %d edges: %.0f allocs", g.NumNodes(), g.NumEdges(), allocs)
		if allocs > 4 {
			t.Errorf("building the adjacency of %d nodes allocates %.0f times (> 4): a per-node allocation came back", g.NumNodes(), allocs)
		}
	}
}
