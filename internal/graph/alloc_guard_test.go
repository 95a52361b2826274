//go:build !race

package graph

import (
	"runtime"
	"testing"
)

// TestAllocGuardSortEdgesByWeightDesc: the greedy's edge order is four
// allocations — two key arrays and two index arrays, one of them returned
// — however many edges the graph has and however many of them tie (the
// limit leaves one spare). The 8 KiB count table lives on the stack, so a
// 4-edge graph allocates its 24 B per edge and nothing sized for
// millions of edges.
func TestAllocGuardSortEdgesByWeightDesc(t *testing.T) {
	for _, items := range []int{2, 500, 20000} {
		g := RandomBipartite(RandomConfig{
			NumItems: items, NumConsumers: 2, EdgeProb: 1,
			MaxWeight: 2, MaxCapacity: 3, Seed: 5,
		})
		// Every tenth edge gets weight 1, so the tie-run sort runs too:
		// on the 40,000-edge graph its run of 4,000 edges is far past the
		// insertion cutoff, so the radix passes and their shared scratch
		// arrays and count table are what is counted.
		for i := 0; i < g.NumEdges(); i += 10 {
			g.edges[i].Weight = 1
		}
		allocs := testing.AllocsPerRun(5, func() { g.SortEdgesByWeightDesc() })
		t.Logf("%d edges: %.0f allocs", g.NumEdges(), allocs)
		if allocs > 5 {
			t.Errorf("sorting %d edges allocates %.0f times (> 5): an allocation per edge or per pass came in", g.NumEdges(), allocs)
		}
	}

	g := small(t)
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		g.SortEdgesByWeightDesc()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d edges: %d B per sort", g.NumEdges(), bytes)
	if bytes > 1<<10 {
		t.Errorf("sorting %d edges allocates %d B (> 1 KiB)", g.NumEdges(), bytes)
	}
}
