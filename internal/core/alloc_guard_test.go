//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/mapreduce"
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

// TestAllocGuardGreedyMRRun: GreedyMR allocates nothing per map-input
// record, let alone per proposal, stamp or compaction — a node's state
// stays in its partition and its reduce compacts the adjacency in place.
// What it allocates is fixed: the round-0 node view (two tables, then
// one []half and one []Pair per partition), the driver with its
// buffer pool, and per job the task goroutines and emitters, the
// first-use pool fills, the Stats, the side output and the merged matched
// set. The instance maps 684 node records over its 4 jobs and shuffles
// 2,310 messages; it measures 299 allocations (AllocsPerRun pins
// GOMAXPROCS to 1, so that is one partition on any machine).
func TestAllocGuardGreedyMRRun(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 400, NumConsumers: 80, EdgeProb: 0.02,
		MaxWeight: 4, MaxCapacity: 6, Seed: 11,
	})
	guardAllocs(t, 400, 0, func() (*Result, error) {
		return GreedyMR(context.Background(), g, GreedyMROptions{})
	})
}

// TestAllocGuardNodeDataset: the round-0 node view costs a fixed handful
// of allocations (the live set, the live-degree and cursor tables, the
// Dataset, the task group) plus six per partition — its task's two
// closures, its owns closure, its node set, its one []half and its one
// []Pair — whatever the node count. A list per node, or a partition spine
// grown by append, lands far outside.
func TestAllocGuardNodeDataset(t *testing.T) {
	for _, items := range []int{19800, 39800} {
		g := graph.RandomBipartite(graph.RandomConfig{
			NumItems: items, NumConsumers: 200, EdgeProb: 0.02,
			MaxWeight: 4, MaxCapacity: 6, Seed: 11,
		})
		for _, parts := range []int{1, 4, 16} {
			for _, byWeight := range []bool{true, false} {
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := nodeDataset(g, parts, byWeight); err != nil {
						t.Fatal(err)
					}
				})
				limit := float64(20 + 6*parts)
				t.Logf("%d nodes, %d edges, %d partitions, byWeight %t: %.0f allocs (limit %.0f)",
					g.NumNodes(), g.NumEdges(), parts, byWeight, allocs, limit)
				if allocs > limit {
					t.Errorf("the view of %d nodes in %d partitions allocates %.0f times (> 20 + 6 per partition = %.0f)",
						g.NumNodes(), parts, allocs, limit)
				}
			}
		}
	}
}

// TestAllocGuardNodeDatasetBytes: the round-0 node view allocates its
// own output — the halves and the records — and at most 32 B per node
// beside it: the live set, the live-degree and cursor tables and one
// node set per partition, 8.7 B per node on this 40,000-node graph in
// one partition and 13.6 in sixteen. A view that read the graph's
// incidence index (24 B per node and 8 per edge, built lazily on a fresh
// graph; the graph has none since) and kept an 8-byte capacity per node
// cost 73–76 B per node here.
func TestAllocGuardNodeDatasetBytes(t *testing.T) {
	for _, parts := range []int{1, 4, 16} {
		for _, byWeight := range []bool{true, false} {
			g := graph.RandomBipartite(graph.RandomConfig{
				NumItems: 39800, NumConsumers: 200, EdgeProb: 0.02,
				MaxWeight: 4, MaxCapacity: 6, Seed: 11,
			})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ds, err := nodeDataset(g, parts, byWeight)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			output := uint64(countLiveEdges(ds))*uint64(unsafe.Sizeof(half{})) +
				uint64(ds.Len())*uint64(unsafe.Sizeof(mapreduce.Pair[graph.NodeID, nodeState]{}))
			extra := int64(after.TotalAlloc-before.TotalAlloc) - int64(output)
			limit := int64(32 * g.NumNodes())
			t.Logf("%d nodes, %d edges, %d partitions, byWeight %t: %d B of output, %d B beside it (%.1f B per node, limit %d B)",
				g.NumNodes(), g.NumEdges(), parts, byWeight, output, extra, float64(extra)/float64(g.NumNodes()), limit)
			if extra > limit {
				t.Errorf("the view of %d nodes in %d partitions allocates %d B beside its %d B of output (> 32 B per node = %d B)",
					g.NumNodes(), parts, extra, output, limit)
			}
		}
	}
}

// TestAllocGuardStackMRRun: no maximal-matching stage copies its node's
// adjacency or sends its state — the stage maps write their flags into the
// resident record, the reduces compact it in place — and no stack job's
// output is rebuilt on the driver: the cleanup reduce emits the next
// iteration's record itself, stack-update raises the dual inside the
// record, and the filter compacts the adjacency in place. So what StackMR
// allocates per map-input record is what its decisions ask for: a node's
// random source (two allocations) and math/rand's Perm wherever a marking
// or selection draws, each layer's flagged copy of the adjacency the
// matching starts from, and the dual reduces' per-call message maps. This
// instance (4,032 map-input records, 64,787 messages, 33 jobs) allocates
// 6,422 times. It allocated 6,823 times while the driver unwrapped each
// cleanup output into the next state, folded stack-update's output into a
// dense y and the filter grew a fresh adjacency per node; 12,409 while the
// stage maps copied the adjacency and sent it to themselves; and 26,639
// with index sets in the stage maps and Go maps in unifyReduce on top. The
// allowance is one per map-input record over a fixed 2,600, which 6,823
// exceeds; GreedyMR's is none per record.
func TestAllocGuardStackMRRun(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 240, NumConsumers: 80, EdgeProb: 0.25,
		MaxWeight: 4, MaxCapacity: 6, Seed: 11,
	})
	guardAllocs(t, 2600, 1, func() (*Result, error) {
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
