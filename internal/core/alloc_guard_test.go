//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// The TestAllocGuard* tests pin the allocation count of complete small
// runs as a fixed part — one-time setup (node records, driver,
// first-round pool fills) plus per-round overhead — and a part that may
// grow with the number of map-input records, read from the run's own
// Result.Shuffle.MapInputRecords. What must stay allocation-free is the
// work per shuffled *message*: a run shuffles several to many messages
// per map-input record, so anything allocated per message, or per map or
// reduce call on top of the stated allowance, lands outside the budget.
// CI runs them by name (-run TestAllocGuard); excluded under the race
// detector, which inflates allocation counts.
func guardAllocs(t *testing.T, fixed, perRecord int64, run func() (*Result, error)) {
	t.Helper()
	var res *Result
	once := func() {
		var err error
		if res, err = run(); err != nil {
			t.Fatal(err)
		}
	}
	once() // warm sync.Pool scratches
	avg := testing.AllocsPerRun(5, once)
	limit := float64(fixed + perRecord*res.Shuffle.MapInputRecords)
	t.Logf("%.0f allocs over %d jobs, %d map-input records, %d shuffled messages (limit %.0f)",
		avg, res.Rounds, res.Shuffle.MapInputRecords, res.Shuffle.ShuffleRecords, limit)
	if avg > limit {
		t.Errorf("the run allocates %.0f (> %d fixed + %d per map-input record = %.0f): a per-message or per-call allocation came back",
			avg, fixed, perRecord, limit)
	}
}

// TestAllocGuardGreedyMRRun: GreedyMR allocates once per map-input
// record — the heap copy of the node's state that its self message
// points to (see greedyMsg) — and nothing per proposal, stamp or
// compaction. The instance maps 684 node records over its rounds and
// shuffles 2,310 messages; 257 allocations are fixed.
func TestAllocGuardGreedyMRRun(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 400, NumConsumers: 80, EdgeProb: 0.02,
		MaxWeight: 4, MaxCapacity: 6, Seed: 11,
	})
	guardAllocs(t, 400, 1, func() (*Result, error) {
		return GreedyMR(context.Background(), g, GreedyMROptions{})
	})
}

// TestAllocGuardStackMRRun: every maximal-matching stage map copies its
// node's adjacency (the input record is not the map's to change) and
// moves the copy's header to the heap for the self message, and the push
// phase's update and filter jobs gather their messages per call, so
// StackMR's allowance is three per map-input record where GreedyMR's is
// one. What it has no room for is a set built per map or reduce call on
// top of that: with the index sets of the stage maps and the two Go maps
// of unifyReduce this instance (4,032 map-input records, 64,787
// messages, 33 jobs) allocated 26,639 times; it allocates 13,165 times
// without them.
func TestAllocGuardStackMRRun(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 240, NumConsumers: 80, EdgeProb: 0.25,
		MaxWeight: 4, MaxCapacity: 6, Seed: 11,
	})
	guardAllocs(t, 2000, 3, func() (*Result, error) {
		return StackMR(context.Background(), g, StackOptions{Seed: 1})
	})
}

// TestAllocGuardNodeRand: a node's random source is the 32-byte
// nodeSource and the rand.Rand around it — two allocations, 80 bytes —
// where seeding math/rand's own source costs a 4.9 KB state per node
// per stage. A draw inside the closed form allocates nothing more.
func TestAllocGuardNodeRand(t *testing.T) {
	const runs = 1000
	var sink int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		sink += nodeRand(1, graph.NodeID(sink), 2).Intn(5)
	})
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one more call
	t.Logf("%.0f allocs, %d B per nodeRand + draw", allocs, bytes)
	if allocs > 2 || bytes > 128 {
		t.Errorf("nodeRand allocates %.0f times, %d B (> 2, 128 B): a seeded state came back", allocs, bytes)
	}
}
