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

func (o *StackOptions) setDefaults(g *graph.Bipartite) error {
	if err := CheckEps(o.Eps); err != nil {
		return err
	}
	if o.Eps == 0 {
		o.Eps = 1
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 64*g.NumEdges() + 256
	}
	return nil
}

// CheckEps refuses an ε the stack algorithms cannot run with: a negative,
// NaN or infinite one. Zero stands for the default, 1.
func CheckEps(eps float64) error {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("core: eps %v is not a finite non-negative number", eps)
	}
	return nil
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
	return runStack(ctx, g, opts, (*stackState).pop)
}

// StackGreedyMR is StackMR with the greedy marking strategy: in the
// maximal-matching subroutine nodes mark their heaviest incident edges
// instead of random ones (paper Section 6, "Variants").
func StackGreedyMR(ctx context.Context, g *graph.Bipartite, opts StackOptions) (*Result, error) {
	opts.Strategy = MarkHeaviest
	return StackMR(ctx, g, opts)
}

// runStack runs the push phase the stack algorithms share, then the given
// pop phase.
func runStack(ctx context.Context, g *graph.Bipartite, opts StackOptions,
	pop func(*stackState, context.Context, *mapreduce.Driver) ([]int32, error),
) (*Result, error) {
	if err := opts.setDefaults(g); err != nil {
		return nil, err
	}
	driver := mapreduce.NewDriver(opts.MR)
	defer driver.Release()
	driver.MaxRounds = opts.MaxRounds

	st := &stackState{g: g, opts: opts, delta: make(map[int32]float64)}
	y, err := st.push(ctx, driver)
	if err != nil {
		return nil, err
	}
	included, err := pop(st, ctx, driver)
	if err != nil {
		return nil, err
	}
	return &Result{
		Matching:    NewMatching(g, included),
		Rounds:      driver.Rounds(),
		Phases:      len(st.layers),
		Shuffle:     driver.Total(),
		RoundStats:  driver.Trace(),
		Certificate: &DualCertificate{Y: y, Eps: opts.Eps, g: g},
	}, nil
}

// stackState carries what the driver keeps between the push and the pop
// phase.
type stackState struct {
	g    *graph.Bipartite
	opts StackOptions
	// layers holds the stacked edge ids, one slice per layer in push
	// order.
	layers [][]int32
	// delta records δ(e) for every stacked edge; the strict variant
	// (Algorithm 1) prioritizes overflow edges by these values.
	delta map[int32]float64
}

// stackNode is the push phase's per-node record: the node view, B the
// node's capacity b(v) throughout, and the node's dual variable y_v, which
// stack-update raises where the record resides.
type stackNode struct {
	nodeState
	Y float64
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

// push runs the push phase — maximal matching, dual update,
// weakly-covered removal, until the working graph is empty — and returns
// the final duals.
//
// The layer loop is a partition-resident dataflow over stackNode records,
// built once from the node view (in incidence order, which the dual
// update sums in; nodeDataset). A layer's maximal matching starts from a
// flagged copy of the records at the layer's capacities and chains its
// stages where they reside; stack-update consumes the layer's entry
// records and raises each node's Y in its record, and stack-filter
// consumes stack-update's output and emits the next layer's records. What
// the driver needs comes back as side output: the matched edge ids, δ(e)
// of every stacked edge, and the final Y of every node that leaves the
// working graph. The fixed point (no live edges) coincides with an empty
// state because the filter reduce emits only nodes that kept at least one
// edge, so every node with a record leaves through it.
func (st *stackState) push(ctx context.Context, driver *mapreduce.Driver) ([]float64, error) {
	view, err := nodeDataset(st.g, driver.Partitions(), false)
	if err != nil {
		return nil, fmt.Errorf("core: stack push: %w", err)
	}
	records := mapreduce.MapValues(view, func(_ graph.NodeID, s nodeState) (stackNode, bool) {
		return stackNode{nodeState: s}, true
	})
	y := make([]float64, st.g.NumNodes())
	threshold := 1.0 / (3 + 2*st.opts.Eps)
	_, err = mapreduce.Loop(ctx, driver, records, func(
		ctx context.Context, layerNo int, recs *mapreduce.Dataset[graph.NodeID, stackNode],
	) (*mapreduce.Dataset[graph.NodeID, stackNode], error) {
		start := mapreduce.MapValues(recs, func(_ graph.NodeID, s stackNode) (mmNode, bool) {
			return flagged(st.layerCap(s.B), s.Adj), true
		})
		layer, err := maximalBMatching(ctx, driver, start, maximalConfig{
			strategy: st.opts.Strategy,
			seed:     st.opts.Seed + int64(layerNo)*7919,
			numEdges: st.g.NumEdges(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: stack push layer %d: %w", layerNo, err)
		}
		if len(layer) == 0 {
			// A maximal matching over a non-empty graph is non-empty;
			// guard against an impossible stall anyway.
			return nil, fmt.Errorf("core: stack push layer %d: empty maximal matching over %d live nodes",
				layerNo, recs.Len())
		}
		inLayer := layerSet(layer)
		// Dual update job: δ contributions flow along layer edges.
		updated, err := runNodeJob(ctx, driver, "stack-update", func() []byte { return encodeStackParams(layer, 0) },
			recs, dualUpdateMap(inLayer), dualUpdateReduce)
		if err != nil {
			return nil, err
		}
		sidePairs(updated.Side(), func(ei int32, d float64) { st.delta[ei] = d })
		// Filter job: stacked edges leave the graph, weakly covered
		// edges are removed.
		next, err := runNodeJob(ctx, driver, "stack-filter", func() []byte { return encodeStackParams(layer, threshold) },
			updated, stackFilterMap, stackFilterReduce(inLayer, threshold))
		updated.Recycle()
		if err != nil {
			return nil, err
		}
		// The next layer's flagged copy is built driver-side.
		if err := next.Materialize(); err != nil {
			return nil, fmt.Errorf("core: stack-filter: %w", err)
		}
		sidePairs(next.Side(), func(v int32, yv float64) { y[v] = yv })
		st.layers = append(st.layers, layer)
		return next, nil
	})
	return y, err
}

// dualMsg carries y_u/b(u) of the sending endpoint along an edge: its
// pre-update dual along a layer edge in stack-update, its post-update
// dual along every edge in stack-filter.
type dualMsg struct {
	edge   int32
	yOverB float64
}

// layerSet indexes a layer's edge ids.
func layerSet(layer []int32) map[int32]bool {
	inLayer := make(map[int32]bool, len(layer))
	for _, ei := range layer {
		inLayer[ei] = true
	}
	return inLayer
}

// emitSidePair reports (id, v) on a reduce's side output as two values:
// the id, then v's bits.
func emitSidePair[K comparable, V any](out mapreduce.Emitter[K, V], id int32, v float64) {
	side := out.(mapreduce.SideEmitter)
	side.EmitSide(uint64(uint32(id)))
	side.EmitSide(math.Float64bits(v))
}

// sidePairs calls fn for every pair emitSidePair reported.
func sidePairs(side [][]uint64, fn func(id int32, v float64)) {
	for _, part := range side {
		for i := 0; i+1 < len(part); i += 2 {
			fn(int32(part[i]), math.Float64frombits(part[i+1]))
		}
	}
}

// dualUpdateMap builds the stack-update map: node v sends y_v/b(v) along
// its layer edges. It and stackFilterReduce are constructors so that a
// dist worker rebuilds the exact closure from shipped parameters (see
// RegisterDistJobs).
func dualUpdateMap(inLayer map[int32]bool) mapreduce.MapFunc[graph.NodeID, stackNode, graph.NodeID, dualMsg] {
	return func(v graph.NodeID, s stackNode, out mapreduce.Emitter[graph.NodeID, dualMsg]) error {
		yb := s.Y / float64(s.B)
		for _, h := range s.Adj {
			if inLayer[h.ID] {
				out.Emit(h.Other, dualMsg{edge: h.ID, yOverB: yb})
			}
		}
		return nil
	}
}

// dualUpdateReduce is the stack-update reduce: every node raises its
// dual by the sum of δ(e) over its layer edges, computed from the
// pre-layer duals of both endpoints (all edges of a layer push in
// parallel, as in the parallel algorithm of Section 5.2), and emits its
// record, which is stack-filter's input. δ(e) itself goes to the side
// output from the edge's item side, the endpoint with the smaller id,
// whose (w − y_item/b(item) − y_consumer/b(consumer))/2 is the formula's
// own operand order.
//
// The sum runs in the node's own adjacency order (messages are gathered
// into a per-edge map first), not in message-arrival order:
// floating-point addition is order-sensitive, and arrival order depends
// on how the input was split across map tasks. Summing in adjacency order
// makes the duals bit-identical under any dataflow.
func dualUpdateReduce(v graph.NodeID, state *stackNode, msgs []dualMsg, out mapreduce.Emitter[graph.NodeID, stackNode]) error {
	if state == nil {
		return nil
	}
	otherYB := make(map[int32]float64, len(msgs))
	for _, m := range msgs {
		otherYB[m.edge] = m.yOverB
	}
	ybSelf := state.Y / float64(state.B)
	var sumDelta float64
	for _, h := range state.Adj {
		yb, ok := otherYB[h.ID]
		if !ok {
			continue
		}
		delta := (h.W - ybSelf - yb) / 2
		if v < h.Other {
			emitSidePair(out, h.ID, delta)
		}
		if delta > 0 {
			sumDelta += delta
		}
	}
	state.Y += sumDelta
	out.Emit(v, *state)
	return nil
}

// stackFilterMap is the stack-filter map: node v sends its post-update
// y_v/b(v) along every edge.
func stackFilterMap(v graph.NodeID, s stackNode, out mapreduce.Emitter[graph.NodeID, dualMsg]) error {
	yb := s.Y / float64(s.B)
	for _, h := range s.Adj {
		out.Emit(h.Other, dualMsg{edge: h.ID, yOverB: yb})
	}
	return nil
}

// stackFilterReduce builds the stack-filter reduce over the stacked layer
// and the weakly-covered threshold: it removes stacked edges and weakly
// covered edges (Definition 1) from the node's adjacency, in place. Both
// endpoints evaluate the same inequality on the same values, so their
// views stay consistent. A node left with no edge leaves the working
// graph, reporting its final dual on the side output.
func stackFilterReduce(inLayer map[int32]bool, threshold float64) mapreduce.StateReduceFunc[graph.NodeID, stackNode, dualMsg, graph.NodeID, stackNode] {
	return func(v graph.NodeID, state *stackNode, msgs []dualMsg, out mapreduce.Emitter[graph.NodeID, stackNode]) error {
		if state == nil {
			return nil
		}
		ybSelf := state.Y / float64(state.B)
		otherYB := make(map[int32]float64, len(msgs))
		for _, m := range msgs {
			otherYB[m.edge] = m.yOverB
		}
		kept := state.Adj[:0]
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
			kept = append(kept, h)
		}
		state.Adj = kept
		if len(kept) > 0 {
			out.Emit(v, *state)
		} else {
			emitSidePair(out, int32(v), state.Y)
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
		input := popRecords(nodePairsSorted(perNode), residual)
		// The pop job re-keys from nodes to edges, so every emitted pair
		// is a cross-partition message (no identity route); its output is
		// collected flat — in ascending edge order — because the capacity
		// bookkeeping below happens driver-side between layers.
		out, err := mapreduce.RunJobDS(ctx, driver, "stack-pop",
			mapreduce.PartitionDataset(input, driver.Partitions()),
			stackPopMap, stackPopReduce)
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

// popNode is a node's record in a pop job (stack-pop, strict-pop): its
// residual capacity and its edges in the layer popped. It carries what
// the job's map reads, so the map runs wherever the record resides.
type popNode struct {
	Residual int
	Edges    []int32
}

// popRecords gives every node of a layer's job input its residual
// capacity.
func popRecords(nodes []mapreduce.Pair[graph.NodeID, []int32], residual []int) []mapreduce.Pair[graph.NodeID, popNode] {
	recs := make([]mapreduce.Pair[graph.NodeID, popNode], len(nodes))
	for i, p := range nodes {
		recs[i] = mapreduce.P(p.Key, popNode{Residual: residual[p.Key], Edges: p.Value})
	}
	return recs
}

// stackPopMap reports, for each of a node's layer edges, whether the
// node is still present (has residual capacity).
func stackPopMap(v graph.NodeID, n popNode, out mapreduce.Emitter[int32, bool]) error {
	alive := n.Residual > 0
	for _, ei := range n.Edges {
		out.Emit(ei, alive)
	}
	return nil
}

// stackPopReduce includes a layer edge when both endpoints reported
// themselves alive.
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
