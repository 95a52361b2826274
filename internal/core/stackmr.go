package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// StackOptions configures the stack algorithms.
type StackOptions struct {
	// MR is the MapReduce configuration for every job.
	MR mapreduce.Config
	// Eps is the slackness parameter ε > 0 of Algorithm 2. It controls
	// the layer capacities (⌈ε·b(v)⌉ edges per node per layer), the
	// weakly-covered threshold w(e)/(3+2ε), the capacity-violation
	// bound (1+ε), and the approximation guarantee 1/(6+ε). The
	// paper's experiments use ε = 1. Zero defaults to 1.
	Eps float64
	// Strategy selects the marking strategy of the maximal-matching
	// subroutine: MarkRandom for StackMR, MarkHeaviest for
	// StackGreedyMR.
	Strategy MarkingStrategy
	// Seed drives all randomized decisions; runs with equal seeds are
	// identical.
	Seed int64
	// MaxRounds aborts the computation when exceeded. Zero means
	// 64·|E|+256, far above the poly-logarithmic expectation; hitting
	// it indicates a bug.
	MaxRounds int
}

func (o *StackOptions) setDefaults(g *graph.Bipartite) {
	if o.Eps == 0 {
		o.Eps = 1
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 64*g.NumEdges() + 256
	}
}

// StackMR computes a b-matching with the primal-dual stack algorithm of
// Section 5.2 (Algorithm 2). The algorithm has an approximation
// guarantee of 1/(6+ε) and may violate node capacities by a factor of at
// most (1+ε).
//
// Push phase: repeatedly compute a maximal matching with per-layer node
// capacities ⌈ε·b(v)⌉ (the Garrido et al. procedure, four MapReduce jobs
// per iteration), push it on the stack as a layer, raise the dual
// variables of the pushed edges by δ(e) = (w(e) − y_u/b(u) − y_v/b(v))/2,
// and delete every edge that became weakly covered
// (y_u/b(u) + y_v/b(v) ≥ w(e)/(3+2ε)). Stacked edges leave the working
// graph, so the push phase ends once every edge is stacked or removed.
//
// Pop phase: layers pop in LIFO order; all edges of a layer whose
// endpoints are still present join the solution in parallel (one
// MapReduce job per layer), capacities decrease, and exhausted nodes are
// removed together with their not-yet-popped edges. Because a layer may
// hold up to ⌈ε·b(v)⌉ edges of a node, the final degree can overshoot
// b(v) — this is the (1+ε) violation that Figure 4 measures.
func StackMR(ctx context.Context, g *graph.Bipartite, opts StackOptions) (*Result, error) {
	opts.setDefaults(g)
	if opts.Eps < 0 {
		return nil, fmt.Errorf("core: negative eps %v", opts.Eps)
	}
	driver := mapreduce.NewDriver(opts.MR)
	driver.MaxRounds = opts.MaxRounds

	st := &stackState{g: g, opts: opts, y: make([]float64, g.NumNodes()),
		delta: make(map[int32]float64)}
	if err := st.push(ctx, driver); err != nil {
		return nil, err
	}
	included, err := st.pop(ctx, driver)
	if err != nil {
		return nil, err
	}
	return &Result{
		Matching:    NewMatching(g, included),
		Rounds:      driver.Rounds(),
		Phases:      len(st.layers),
		Shuffle:     driver.Total(),
		RoundStats:  driver.Trace(),
		Certificate: &DualCertificate{Y: st.y, Eps: opts.Eps, g: g},
	}, nil
}

// StackGreedyMR is StackMR with the greedy marking strategy: in the
// maximal-matching subroutine nodes mark their heaviest incident edges
// instead of random ones (paper Section 6, "Variants").
func StackGreedyMR(ctx context.Context, g *graph.Bipartite, opts StackOptions) (*Result, error) {
	opts.Strategy = MarkHeaviest
	return StackMR(ctx, g, opts)
}

// stackState carries the evolving algorithm state between jobs.
type stackState struct {
	g    *graph.Bipartite
	opts StackOptions
	// y holds the dual variables, indexed by node.
	y []float64
	// layers holds the stacked edge ids, one slice per layer in push
	// order.
	layers [][]int32
	// delta records δ(e) for every stacked edge; the strict variant
	// (Algorithm 1) prioritizes overflow edges by these values.
	delta map[int32]float64
}

// layerCap returns the per-layer capacity ⌈ε·b(v)⌉ (at least 1 for nodes
// with positive capacity).
func (st *stackState) layerCap(b int) int {
	lc := int(math.Ceil(st.opts.Eps * float64(b)))
	if lc < 1 {
		lc = 1
	}
	if lc > b {
		lc = b
	}
	return lc
}

// push runs the push phase: maximal matching, dual update, weakly-covered
// removal, until the working graph is empty.
//
// The layer loop is a partition-resident dataflow: the node view is
// built once, straight into its partitions, in incidence order (the dual
// update sums in it; nodeDataset), and every job of every layer — the
// maximal-matching stages, the dual update, the filter — consumes the
// previous job's output partition-by-partition. The per-layer capacity
// override is a key-preserving MapValues, so it never moves a record.
// The fixed point (no live edges) coincides with an empty state because
// the filter reduce emits only nodes that kept at least one edge.
func (st *stackState) push(ctx context.Context, driver *mapreduce.Driver) error {
	records, err := nodeDataset(st.g, driver.Partitions(), false)
	if err != nil {
		return fmt.Errorf("core: stack push: %w", err)
	}
	_, err = mapreduce.Loop(ctx, driver, records, func(
		ctx context.Context, layerNo int, recs *mapreduce.Dataset[graph.NodeID, nodeState],
	) (*mapreduce.Dataset[graph.NodeID, nodeState], error) {
		// Per-layer capacities for the maximal matching.
		layerRecs := mapreduce.MapValues(recs, func(_ graph.NodeID, s nodeState) (nodeState, bool) {
			return nodeState{B: st.layerCap(s.B), Adj: s.Adj}, true
		})
		layer, err := maximalBMatching(ctx, driver, layerRecs, maximalConfig{
			strategy: st.opts.Strategy,
			seed:     st.opts.Seed + int64(layerNo)*7919,
			numEdges: st.g.NumEdges(),
		})
		layerRecs.Recycle() // consumed by the matching's flagged view
		if err != nil {
			return nil, fmt.Errorf("core: stack push layer %d: %w", layerNo, err)
		}
		if len(layer) == 0 {
			// A maximal matching over a non-empty graph is non-empty;
			// guard against an impossible stall anyway.
			return nil, fmt.Errorf("core: stack push layer %d: empty maximal matching over %d live half-edges",
				layerNo, countLiveEdges(recs))
		}
		st.layers = append(st.layers, layer)
		// Record δ(e) from the pre-layer duals (the same values the
		// update job's reducers compute).
		for _, ei := range layer {
			e := st.g.Edge(int(ei))
			bu := float64(intCap(st.g, e.Item))
			bv := float64(intCap(st.g, e.Consumer))
			st.delta[ei] = (e.Weight - st.y[e.Item]/bu - st.y[e.Consumer]/bv) / 2
		}

		// Dual update job: δ contributions flow along layer edges.
		if err := st.updateDuals(ctx, driver, recs, layer); err != nil {
			return nil, err
		}
		// Filter job: stacked edges leave the graph, weakly covered
		// edges are removed.
		return st.filterEdges(ctx, driver, recs, layer)
	})
	return err
}

// dualMsg carries y_u/b(u) of the sending endpoint along a layer edge.
type dualMsg struct {
	edge   int32
	yOverB float64
}

// updateDuals runs one MapReduce job in which every node raises its dual
// variable by the sum of δ(e) over its layer edges, computed from the
// pre-layer duals of both endpoints (all edges of a layer push in
// parallel, as in the parallel algorithm of Section 5.2).
//
// The reducer sums the δ contributions in the node's own adjacency
// order (messages are gathered into a per-edge map first), not in
// message-arrival order: floating-point addition is order-sensitive,
// and arrival order depends on how the input was split across map
// tasks, which differs between an input consumed where it resides and
// one that had to be re-partitioned. Summing in adjacency order makes
// the duals bit-identical either way.
//
// A state job (mapreduce.RunStateDS): the map only reads the node's
// record, which its reduce call is handed where it resides.
func (st *stackState) updateDuals(
	ctx context.Context,
	driver *mapreduce.Driver,
	records *mapreduce.Dataset[graph.NodeID, nodeState],
	layer []int32,
) error {
	y := st.y
	out, err := runNodeJob(ctx, driver, "stack-update", func() []byte { return encodeStackParams(y, layer, 0) },
		records, dualUpdateMap(y, layerSet(layer)), dualUpdateReduce(y))
	if err != nil {
		return err
	}
	if err := out.Materialize(); err != nil {
		return fmt.Errorf("core: stack-update: %w", err)
	}
	out.Each(func(v graph.NodeID, d float64) { st.y[v] += d })
	out.Recycle()
	return nil
}

// layerSet indexes a layer's edge ids.
func layerSet(layer []int32) map[int32]bool {
	inLayer := make(map[int32]bool, len(layer))
	for _, ei := range layer {
		inLayer[ei] = true
	}
	return inLayer
}

// dualUpdateMap builds the stack-update map: node v sends y_v/b(v) along
// its layer edges. Like the reduces below it is a constructor so that a
// dist worker rebuilds the exact closure from shipped parameters (see
// RegisterDistJobs).
func dualUpdateMap(y []float64, inLayer map[int32]bool) mapreduce.MapFunc[graph.NodeID, nodeState, graph.NodeID, dualMsg] {
	return func(v graph.NodeID, s nodeState, out mapreduce.Emitter[graph.NodeID, dualMsg]) error {
		yb := y[v] / float64(s.B)
		for _, h := range s.Adj {
			if inLayer[h.ID] {
				out.Emit(h.Other, dualMsg{edge: h.ID, yOverB: yb})
			}
		}
		return nil
	}
}

// dualUpdateReduce builds the stack-update reduce over the given duals:
// node v raises y(v) by the sum of its layer edges' positive δ, folded
// in adjacency order for bit-identical floats under any dataflow.
func dualUpdateReduce(y []float64) mapreduce.StateReduceFunc[graph.NodeID, nodeState, dualMsg, graph.NodeID, float64] {
	return func(v graph.NodeID, state *nodeState, msgs []dualMsg, out mapreduce.Emitter[graph.NodeID, float64]) error {
		if state == nil {
			return nil
		}
		otherYB := make(map[int32]float64, len(msgs))
		for _, m := range msgs {
			otherYB[m.edge] = m.yOverB
		}
		ybSelf := y[v] / float64(state.B)
		var sumDelta float64
		for _, h := range state.Adj {
			yb, ok := otherYB[h.ID]
			if !ok {
				continue
			}
			delta := (h.W - ybSelf - yb) / 2
			if delta > 0 {
				sumDelta += delta
			}
		}
		if sumDelta > 0 {
			out.Emit(v, sumDelta)
		}
		return nil
	}
}

// filterMsg carries the post-update y_u/b(u) of the sending endpoint
// along every edge.
type filterMsg struct {
	edge   int32
	yOverB float64
}

// filterEdges runs one MapReduce job that removes stacked edges and
// weakly covered edges (Definition 1) from the working graph. Both
// endpoints evaluate the same inequality on the same values, so their
// views stay consistent. A state job, like updateDuals.
func (st *stackState) filterEdges(
	ctx context.Context,
	driver *mapreduce.Driver,
	records *mapreduce.Dataset[graph.NodeID, nodeState],
	layer []int32,
) (*mapreduce.Dataset[graph.NodeID, nodeState], error) {
	y := st.y
	threshold := 1.0 / (3 + 2*st.opts.Eps)
	out, err := runNodeJob(ctx, driver, "stack-filter", func() []byte { return encodeStackParams(y, layer, threshold) },
		records, stackFilterMap(y), stackFilterReduce(y, layerSet(layer), threshold))
	if err != nil {
		return nil, err
	}
	if err := out.Materialize(); err != nil {
		return nil, fmt.Errorf("core: stack-filter: %w", err)
	}
	// The reducer emits each surviving node under its own key, so the
	// output Dataset is aligned as-is: it IS the next layer's input.
	return out, nil
}

// stackFilterMap builds the stack-filter map: node v sends its
// post-update y_v/b(v) along every edge.
func stackFilterMap(y []float64) mapreduce.MapFunc[graph.NodeID, nodeState, graph.NodeID, filterMsg] {
	return func(v graph.NodeID, s nodeState, out mapreduce.Emitter[graph.NodeID, filterMsg]) error {
		yb := y[v] / float64(s.B)
		for _, h := range s.Adj {
			out.Emit(h.Other, filterMsg{edge: h.ID, yOverB: yb})
		}
		return nil
	}
}

// stackFilterReduce builds the stack-filter reduce over the post-update
// duals, the stacked layer, and the weakly-covered threshold.
func stackFilterReduce(y []float64, inLayer map[int32]bool, threshold float64) mapreduce.StateReduceFunc[graph.NodeID, nodeState, filterMsg, graph.NodeID, nodeState] {
	return func(v graph.NodeID, state *nodeState, msgs []filterMsg, out mapreduce.Emitter[graph.NodeID, nodeState]) error {
		if state == nil {
			return nil
		}
		ybSelf := y[v] / float64(state.B)
		otherYB := make(map[int32]float64, len(msgs))
		for _, m := range msgs {
			otherYB[m.edge] = m.yOverB
		}
		next := nodeState{B: state.B}
		for _, h := range state.Adj {
			if inLayer[h.ID] {
				continue // stacked: leaves the working graph
			}
			yb, ok := otherYB[h.ID]
			if !ok {
				continue // neighbor gone
			}
			if ybSelf+yb >= threshold*h.W-1e-15 {
				continue // weakly covered: removed
			}
			next.Adj = append(next.Adj, h)
		}
		if len(next.Adj) > 0 {
			out.Emit(v, next)
		}
		return nil
	}
}

// pop runs the pop phase: one MapReduce job per layer, in LIFO order.
// The job's mappers emit, for each stacked edge of the layer, whether its
// endpoint is still present; the reducers (keyed by edge) include the
// edge when both endpoints are. Capacity bookkeeping happens between
// jobs, exactly as Algorithm 2 lines 13-16 prescribe.
func (st *stackState) pop(ctx context.Context, driver *mapreduce.Driver) ([]int32, error) {
	g := st.g
	residual := make([]int, g.NumNodes())
	for v := range residual {
		residual[v] = intCap(g, graph.NodeID(v))
	}
	var included []int32
	for l := len(st.layers) - 1; l >= 0; l-- {
		layer := st.layers[l]
		// Node-based view of the layer: node -> its stacked edges.
		perNode := make(map[graph.NodeID][]int32)
		for _, ei := range layer {
			e := g.Edge(int(ei))
			perNode[e.Item] = append(perNode[e.Item], ei)
			perNode[e.Consumer] = append(perNode[e.Consumer], ei)
		}
		input := nodePairsSorted(perNode)
		// The pop job re-keys from nodes to edges, so every emitted pair
		// is a cross-partition message (no identity route); its output is
		// collected flat — in ascending edge order — because the capacity
		// bookkeeping below happens driver-side between layers.
		out, err := mapreduce.RunJobDS(ctx, driver, "stack-pop",
			mapreduce.PartitionDataset(input, driver.Partitions()),
			func(v graph.NodeID, edges []int32, out mapreduce.Emitter[int32, bool]) error {
				alive := residual[v] > 0
				for _, ei := range edges {
					out.Emit(ei, alive)
				}
				return nil
			},
			stackPopReduce)
		if err != nil {
			return nil, fmt.Errorf("core: stack-pop layer %d: %w", l, err)
		}
		if err := out.Materialize(); err != nil {
			return nil, fmt.Errorf("core: stack-pop layer %d: %w", l, err)
		}
		for _, p := range out.Collect() {
			e := g.Edge(int(p.Key))
			included = append(included, p.Key)
			residual[e.Item]--
			residual[e.Consumer]--
		}
		out.Recycle()
	}
	return included, nil
}

// stackPopReduce includes a layer edge when both endpoints reported
// themselves alive. Stateless, so dist workers register it as-is.
func stackPopReduce(ei int32, alive []bool, out mapreduce.Emitter[int32, bool]) error {
	if len(alive) == 2 && alive[0] && alive[1] {
		out.Emit(ei, true)
	}
	return nil
}

// nodePairsSorted flattens a per-node adjacency map into job input in
// ascending node order. The engine's group-sort would normalize key
// order anyway (keys here are unique), but feeding jobs in map
// iteration order makes every downstream byte depend on that
// normalization holding; sorting here keeps the bit-identical-backends
// invariant locally evident. Flagged by repolint's determinism rule
// before this existed.
func nodePairsSorted(perNode map[graph.NodeID][]int32) []mapreduce.Pair[graph.NodeID, []int32] {
	input := make([]mapreduce.Pair[graph.NodeID, []int32], 0, len(perNode))
	for v, edges := range perNode {
		input = append(input, mapreduce.P(v, edges))
	}
	slices.SortFunc(input, func(a, b mapreduce.Pair[graph.NodeID, []int32]) int {
		return int(a.Key) - int(b.Key)
	})
	return input
}
