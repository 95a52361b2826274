//go:build !race

package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// TestAllocGuardGreedyMRRun pins the allocation count of a complete
// small chained GreedyMR computation. The budget covers the one-time
// setup (node records, driver, first-round pool fills) plus per-round
// fixed overhead; the per-node and per-key hot-loop work — message
// copies, prefix proposals, edge-stamp intersections, adjacency
// compaction — must stay allocation-free or this blows up by an order
// of magnitude (the instance runs ~500 node records across several
// rounds). CI runs it by name (-run TestAllocGuard); excluded under
// the race detector, which inflates allocation counts.
func TestAllocGuardGreedyMRRun(t *testing.T) {
	const limit = 1200
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 400, NumConsumers: 80, EdgeProb: 0.02,
		MaxWeight: 4, MaxCapacity: 6, Seed: 11,
	})
	ctx := context.Background()
	run := func() {
		if _, err := GreedyMR(ctx, g, GreedyMROptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm sync.Pool scratches
	avg := testing.AllocsPerRun(5, run)
	t.Logf("small chained GreedyMR run: %.0f allocs", avg)
	if avg > limit {
		t.Errorf("GreedyMR run allocates %.0f (> %d): the round loop's allocation discipline regressed", avg, limit)
	}
}
