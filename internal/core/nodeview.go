package core

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// The MapReduce matching algorithms use a "node-based" representation of
// the graph (paper Section 5.3): the input and output of every job is a
// consistent view of the graph as adjacency lists, one record per live
// node. Mappers make decisions locally to a node and emit the decisions
// along the node's incident edges; reducers unify the diverging views of
// each edge at its two endpoints.

// half is one endpoint's view of an incident edge.
type half struct {
	// ID is the edge index in the underlying graph.
	ID int32
	// Other is the opposite endpoint.
	Other graph.NodeID
	// W is the edge weight.
	W float64
}

// nodeState is the per-node record carried between rounds.
type nodeState struct {
	// B is the node's residual capacity.
	B int
	// Adj lists the live incident edges.
	Adj []half
}

// nodeRecords builds the initial node-based view of a graph: one record
// per node with positive capacity and at least one incident edge whose
// other endpoint also has positive capacity. All adjacency lists are
// carved out of one exactly-sized backing array (a counting pass first,
// then a fill pass) instead of one allocation per node; each node's
// region is capacity-limited, so the in-place compaction the round
// loops perform on their own lists can never bleed into a neighbor's.
func nodeRecords(g *graph.Bipartite) []mapreduce.Pair[graph.NodeID, nodeState] {
	n := g.NumNodes()
	keep := func(id graph.NodeID, ei int32) bool {
		return intCap(g, g.Edge(int(ei)).Other(id)) > 0
	}
	total, live := 0, 0
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if intCap(g, id) == 0 {
			continue
		}
		deg := 0
		for _, ei := range g.IncidentEdges(id) {
			if keep(id, ei) {
				deg++
			}
		}
		if deg > 0 {
			total += deg
			live++
		}
	}
	backing := make([]half, 0, total) // exact: never reallocates below
	recs := make([]mapreduce.Pair[graph.NodeID, nodeState], 0, live)
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		b := intCap(g, id)
		if b == 0 {
			continue
		}
		start := len(backing)
		for _, ei := range g.IncidentEdges(id) {
			if keep(id, ei) {
				e := g.Edge(int(ei))
				backing = append(backing, half{ID: ei, Other: e.Other(id), W: e.Weight})
			}
		}
		if len(backing) == start {
			continue
		}
		adj := backing[start:len(backing):len(backing)]
		recs = append(recs, mapreduce.P(id, nodeState{B: b, Adj: adj}))
	}
	return recs
}

// nodeDataset is the round-0 node view of g as the aligned Dataset the
// round loops start from: nodeRecords — ordered heaviest first when
// byWeight (greedyRecords) — hashed into parts partitions.
func nodeDataset(g *graph.Bipartite, parts int, byWeight bool) (*mapreduce.Dataset[graph.NodeID, nodeState], error) {
	if byWeight {
		return mapreduce.PartitionDataset(greedyRecords(g), parts), nil
	}
	return mapreduce.PartitionDataset(nodeRecords(g), parts), nil
}

// byWeightThenID orders halves heaviest first, ties by ascending edge
// id: the cLv selection order of GreedyMR (Algorithm 3) and of the
// greedy marking strategy of StackGreedyMR. It is a total order (edge
// ids are unique), so an unstable sort under it is deterministic.
func byWeightThenID(a, b half) int {
	if a.W != b.W {
		if a.W > b.W {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// topByWeight returns the indexes (into adj) of the k first edges under
// byWeightThenID, leaving adj itself in incidence order (the stack
// algorithms fold floating-point sums over it in that order).
func topByWeight(adj []half, k int) []int32 {
	if k <= 0 {
		return nil
	}
	idx := make([]int32, len(adj))
	for i := range adj {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return byWeightThenID(adj[a], adj[b]) })
	if k < len(idx) {
		idx = idx[:k]
	}
	return idx
}

// countLiveEdges sums adjacency lengths over a node-view Dataset; every
// live edge is counted once per endpoint, so the result is twice the
// edge count for a consistent view. It scans every record, so the round
// loops use Dataset.Len as their fixed-point test instead (sound
// because every record of a node view carries at least one live edge)
// and reach for this only on error paths.
func countLiveEdges(recs *mapreduce.Dataset[graph.NodeID, nodeState]) int {
	total := 0
	recs.Each(func(_ graph.NodeID, s nodeState) { total += len(s.Adj) })
	return total
}
