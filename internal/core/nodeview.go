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

// nodeDataset builds the round-0 node view of g straight into the
// aligned, key-ordered partitions the round loops start from: one record
// per node with positive capacity and at least one incident edge whose
// other endpoint also has positive capacity. Every partition, on its own
// goroutine (mapreduce.BuildDataset), sums the live degrees of the nodes
// it owns and fills, in ascending node order, one exact []half and one
// exact []Pair — all its round-0 records point into, from here on the
// round loops' to rewrite. A node's region is capacity-limited, so
// compacting it in place can never bleed into a neighbor's; with byWeight
// (GreedyMR) it is ordered byWeightThenID once filled, else left in
// incidence order (the stack algorithms sum over it). Serial are only the
// rounding of b(v) and the live degrees: one sequential edge scan, where
// counting per partition reads the edge array at random a second time.
func nodeDataset(g *graph.Bipartite, parts int, byWeight bool) (*mapreduce.Dataset[graph.NodeID, nodeState], error) {
	caps := make([]int, g.NumNodes())
	for v := range caps {
		caps[v] = intCap(g, graph.NodeID(v))
	}
	edges := g.Edges()
	deg := make([]int32, len(caps)) // live degree: edges whose both ends have capacity
	for _, e := range edges {
		if caps[e.Item] > 0 && caps[e.Consumer] > 0 {
			deg[e.Item]++
			deg[e.Consumer]++
		}
	}
	return mapreduce.BuildDataset(parts, func(_ int, owns func(graph.NodeID) bool) []mapreduce.Pair[graph.NodeID, nodeState] {
		total, live := 0, 0
		for v, d := range deg {
			if d > 0 && owns(graph.NodeID(v)) {
				total += int(d)
				live++
			}
		}
		backing := make([]half, 0, total) // exact: never reallocates below
		recs := make([]mapreduce.Pair[graph.NodeID, nodeState], 0, live)
		for v, d := range deg {
			id := graph.NodeID(v)
			if d == 0 || !owns(id) {
				continue
			}
			start := len(backing)
			for _, ei := range g.IncidentEdges(id) {
				if e := edges[ei]; caps[e.Other(id)] > 0 {
					backing = append(backing, half{ID: ei, Other: e.Other(id), W: e.Weight})
				}
			}
			adj := backing[start:len(backing):len(backing)]
			if byWeight {
				slices.SortFunc(adj, byWeightThenID)
			}
			recs = append(recs, mapreduce.P(id, nodeState{B: caps[v], Adj: adj}))
		}
		return recs
	})
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
