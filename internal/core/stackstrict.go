package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// StackMRStrict implements Algorithm 1 of the paper: the stack algorithm
// that satisfies ALL capacity constraints. The push phase is identical
// to StackMR's; the pop phase differs:
//
//   - popping a layer tentatively includes its edges; if a vertex v's
//     capacity would be exceeded, all layer edges incident to v are
//     marked overflow (removed from the solution) and v's remaining
//     stacked edges are removed from the stack (Algorithm 1, line 15);
//   - a final phase turns overflow edges into a feasible completion:
//     repeatedly take the overflow edges that are locally δ-maximal up
//     to a (1+ε) factor (no incompatible overflow edge has δ more than
//     (1+ε) times larger), compute a maximal b-matching over them — a
//     sublayer — and include it (lines 19-25).
//
// The paper describes this variant but does not evaluate it, noting that
// the overflow machinery "does not seem to be efficient" in MapReduce;
// the BenchmarkAblationStrictVsRelaxed benchmark quantifies exactly that
// round-count gap against StackMR. The result is strictly feasible
// (Validate(1) passes).
func StackMRStrict(ctx context.Context, g *graph.Bipartite, opts StackOptions) (*Result, error) {
	return runStack(ctx, g, opts, (*stackState).popStrict)
}

// popStrict runs the strict pop phase and the overflow-resolution phase.
func (st *stackState) popStrict(ctx context.Context, driver *mapreduce.Driver) ([]int32, error) {
	g := st.g
	residual := make([]int, g.NumNodes())
	for v := range residual {
		residual[v] = intCap(g, graph.NodeID(v))
	}
	removedEdge := make(map[int32]bool) // stacked edges dropped by line 15/16
	var included []int32
	var overflow []int32

	// Every node's stacked edges, over all layers: removedEdge is read
	// only for layer edges, so these are the edges it needs.
	stacked := make([][]int32, g.NumNodes())
	for _, layer := range st.layers {
		for _, ei := range layer {
			e := g.Edge(int(ei))
			stacked[e.Item] = append(stacked[e.Item], ei)
			stacked[e.Consumer] = append(stacked[e.Consumer], ei)
		}
	}
	// removeNodeEdges drops every still-stacked edge of v from future
	// layers (they are identified lazily through removedEdge).
	removeNodeEdges := func(v graph.NodeID, layerSet map[int32]bool) {
		for _, ei := range stacked[v] {
			if !layerSet[ei] {
				removedEdge[ei] = true
			}
		}
	}

	for l := len(st.layers) - 1; l >= 0; l-- {
		layer := st.layers[l]
		layerSet := make(map[int32]bool, len(layer))
		var live []int32
		for _, ei := range layer {
			if removedEdge[ei] {
				continue
			}
			e := g.Edge(int(ei))
			if residual[e.Item] <= 0 || residual[e.Consumer] <= 0 {
				continue
			}
			layerSet[ei] = true
			live = append(live, ei)
		}

		// One MapReduce job per layer: mappers carry each node's
		// residual capacity to its layer edges; reducers (keyed by
		// edge) decide tentative inclusion; overflow detection needs
		// the per-node tentative degree, computed below from the job
		// output, mirroring the two-view unification of Section 5.3.
		perNode := make(map[graph.NodeID][]int32)
		for _, ei := range live {
			e := g.Edge(int(ei))
			perNode[e.Item] = append(perNode[e.Item], ei)
			perNode[e.Consumer] = append(perNode[e.Consumer], ei)
		}
		input := popRecords(nodePairsSorted(perNode), residual)
		outDS, err := mapreduce.RunJobDS(ctx, driver, "strict-pop",
			mapreduce.PartitionDataset(input, driver.Partitions()),
			strictPopMap, strictPopReduce)
		if err != nil {
			return nil, fmt.Errorf("core: strict-pop layer %d: %w", l, err)
		}
		if err := outDS.Materialize(); err != nil {
			return nil, fmt.Errorf("core: strict-pop layer %d: %w", l, err)
		}
		// Collected flat (ascending edge order) because the capacity and
		// overflow bookkeeping below runs driver-side between layers.
		out := outDS.Collect()

		overflowNodes := make(map[graph.NodeID]bool)
		for _, p := range out {
			ei := p.Key
			e := g.Edge(int(ei))
			if p.Value {
				included = append(included, ei)
				residual[e.Item]--
				residual[e.Consumer]--
				continue
			}
			overflow = append(overflow, ei)
			if len(perNode[e.Item]) > residual[e.Item] {
				overflowNodes[e.Item] = true
			}
			if len(perNode[e.Consumer]) > residual[e.Consumer] {
				overflowNodes[e.Consumer] = true
			}
		}
		// Line 15: overflowed vertices lose their not-yet-popped edges.
		for v := range overflowNodes {
			removeNodeEdges(v, layerSet)
		}
		// Line 16: saturated vertices leave with all their edges.
		for v := range perNode {
			if residual[v] <= 0 {
				removeNodeEdges(v, layerSet)
			}
		}
	}

	comp, err := st.resolveOverflow(ctx, driver, overflow, residual)
	if err != nil {
		return nil, err
	}
	return append(included, comp...), nil
}

// resolveOverflow implements lines 19-25 of Algorithm 1: sublayers of
// locally δ-maximal overflow edges are matched maximally and included
// while feasibility allows.
func (st *stackState) resolveOverflow(
	ctx context.Context,
	driver *mapreduce.Driver,
	overflow []int32,
	residual []int,
) ([]int32, error) {
	g := st.g
	eps := st.opts.Eps
	var included []int32
	pending := append([]int32(nil), overflow...)
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	pending = dedupe(pending)

	for round := 0; len(pending) > 0; round++ {
		// Drop overflow edges that lost an endpoint.
		alive := pending[:0]
		for _, ei := range pending {
			e := g.Edge(int(ei))
			if residual[e.Item] > 0 && residual[e.Consumer] > 0 {
				alive = append(alive, ei)
			}
		}
		pending = alive
		if len(pending) == 0 {
			break
		}

		// One job: per-node maxima of δ over overflow edges; an edge is
		// in the sublayer candidate set L̄ when no incompatible overflow
		// edge has δ more than (1+ε) times larger.
		perNode := make(map[graph.NodeID][]int32)
		for _, ei := range pending {
			e := g.Edge(int(ei))
			perNode[e.Item] = append(perNode[e.Item], ei)
			perNode[e.Consumer] = append(perNode[e.Consumer], ei)
		}
		delta := st.delta
		nodes := nodePairsSorted(perNode)
		input := make([]mapreduce.Pair[graph.NodeID, edgeDeltas], len(nodes))
		for i, p := range nodes {
			ds := make(edgeDeltas, len(p.Value))
			for j, ei := range p.Value {
				ds[j] = delta[ei]
			}
			input[i] = mapreduce.P(p.Key, ds)
		}
		maxOut, err := mapreduce.RunJobDS(ctx, driver, "strict-sublayer-filter",
			mapreduce.PartitionDataset(input, driver.Partitions()),
			sublayerMaxMap, sublayerMaxReduce)
		if err != nil {
			return nil, fmt.Errorf("core: strict-sublayer-filter: %w", err)
		}
		if err := maxOut.Materialize(); err != nil {
			return nil, fmt.Errorf("core: strict-sublayer-filter: %w", err)
		}
		maxDelta := make(map[graph.NodeID]float64, maxOut.Len())
		maxOut.Each(func(v graph.NodeID, m float64) { maxDelta[v] = m })
		var lbar []int32
		for _, ei := range pending {
			e := g.Edge(int(ei))
			d := delta[ei]
			if (1+eps)*d >= maxDelta[e.Item]-1e-15 && (1+eps)*d >= maxDelta[e.Consumer]-1e-15 {
				lbar = append(lbar, ei)
			}
		}
		if len(lbar) == 0 {
			// Cannot happen: the globally δ-maximal pending edge always
			// qualifies. Guard against float pathologies anyway.
			return nil, fmt.Errorf("core: empty sublayer with %d overflow edges pending", len(pending))
		}

		// Maximal b-matching over the sublayer with the residual
		// capacities (line 21).
		start := mapreduce.PartitionDataset(overflowRecords(g, lbar, residual), driver.Partitions())
		sublayer, err := maximalBMatching(ctx, driver, start, maximalConfig{
			strategy: st.opts.Strategy,
			seed:     st.opts.Seed ^ (int64(round)+1)*104729,
			numEdges: g.NumEdges(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: strict sublayer %d: %w", round, err)
		}
		// Include the sublayer (feasible by construction of the
		// maximal matching against residual capacities), update
		// capacities, retire the sublayer edges from the overflow set.
		inSub := make(map[int32]bool, len(sublayer))
		for _, ei := range sublayer {
			inSub[ei] = true
			e := g.Edge(int(ei))
			residual[e.Item]--
			residual[e.Consumer]--
			included = append(included, ei)
		}
		// Line 24 removes the whole candidate sublayer L̄ from the
		// overflow set (matched or not: unmatched L̄ edges lost to a
		// saturated endpoint, or they would contradict maximality —
		// except both-alive ones, which maximality forbids).
		inLbar := make(map[int32]bool, len(lbar))
		for _, ei := range lbar {
			inLbar[ei] = true
		}
		next := pending[:0]
		for _, ei := range pending {
			if !inLbar[ei] && !inSub[ei] {
				next = append(next, ei)
			}
		}
		pending = next
	}
	return included, nil
}

// strictPopMap carries a node's capacity verdict to its layer edges: a
// node whose tentative layer degree exceeds its residual capacity
// overflows, and none of its layer edges may be included (Algorithm 1,
// line 15).
func strictPopMap(v graph.NodeID, n popNode, out mapreduce.Emitter[int32, bool]) error {
	ok := len(n.Edges) <= n.Residual
	for _, ei := range n.Edges {
		out.Emit(ei, ok)
	}
	return nil
}

// strictPopReduce decides tentative inclusion: both endpoints must have
// reported capacity headroom.
func strictPopReduce(ei int32, oks []bool, out mapreduce.Emitter[int32, bool]) error {
	out.Emit(ei, len(oks) == 2 && oks[0] && oks[1])
	return nil
}

// edgeDeltas is a node's record in the sublayer filter: the δ of each of
// its pending overflow edges.
type edgeDeltas []float64

// sublayerMaxMap sends a node its largest overflow δ.
func sublayerMaxMap(v graph.NodeID, ds edgeDeltas, out mapreduce.Emitter[graph.NodeID, float64]) error {
	m := 0.0
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	out.Emit(v, m)
	return nil
}

// sublayerMaxReduce forwards the per-node δ maximum computed map-side
// (one message per node).
func sublayerMaxReduce(v graph.NodeID, ms []float64, out mapreduce.Emitter[graph.NodeID, float64]) error {
	out.Emit(v, ms[0])
	return nil
}

// overflowRecords builds the flagged records a sublayer's maximal
// matching starts from: the overflow subgraph restricted to the given
// edges, with the given residual capacities.
func overflowRecords(g *graph.Bipartite, edges []int32, residual []int) []mapreduce.Pair[graph.NodeID, mmNode] {
	adj := make(map[graph.NodeID][]mmEdge)
	for _, ei := range edges {
		e := g.Edge(int(ei))
		adj[e.Item] = append(adj[e.Item], mmEdge{half: half{ID: ei, Other: e.Consumer, W: e.Weight}})
		adj[e.Consumer] = append(adj[e.Consumer], mmEdge{half: half{ID: ei, Other: e.Item, W: e.Weight}})
	}
	recs := make([]mapreduce.Pair[graph.NodeID, mmNode], 0, len(adj))
	for v, a := range adj {
		if residual[v] <= 0 {
			continue
		}
		recs = append(recs, mapreduce.P(v, mmNode{B: residual[v], Adj: a}))
	}
	// Deterministic record order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	return recs
}

// dedupe removes consecutive duplicates from a sorted slice.
func dedupe(xs []int32) []int32 {
	out := xs[:0]
	for i, x := range xs {
		if i > 0 && xs[i-1] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}
