package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// GreedyMROptions configures GreedyMR.
type GreedyMROptions struct {
	// MR is the MapReduce configuration for every round.
	MR mapreduce.Config
	// MaxRounds aborts the computation when exceeded (a safety net:
	// GreedyMR always terminates, but its round count can be linear in
	// the worst case). Zero means 4·|E|+16, which is always enough
	// because every round matches or drops at least one edge.
	MaxRounds int
	// StopAfterRounds, when positive, stops the algorithm early and
	// returns the current (feasible) solution: the any-time property
	// of Section 5.4.
	StopAfterRounds int
}

// GreedyMR computes a b-matching with the MapReduce adaptation of the
// greedy algorithm (paper Section 5.4, Algorithm 3).
//
// Each MapReduce round: in the map phase every node v proposes its
// (residual) b(v) heaviest incident edges to its neighbors; in the reduce
// phase every node intersects its own proposals with those of its
// neighbors, includes the intersection in the matching, decrements its
// capacity, and drops out when saturated. The solution after every round
// is feasible, so the algorithm can be stopped at any time.
//
// The returned Result has one ValueTrace entry per round (Figure 5 plots
// exactly this trace) and Rounds equal to the number of MapReduce jobs,
// one per greedy iteration.
//
// The rounds chain through a partition-resident Dataset: the node
// records are built once, straight into their partitions where the jobs
// run — on dist by the workers that hold them (mapreduce.BuildDS) — with
// every adjacency ordered heaviest first (nodeView; the reduce compacts in
// place without reordering, so a node's b(v) heaviest remaining edges are
// always the prefix Adj[:B] and no round sorts anything); every round is
// a state job (mapreduce.RunStateDS) with one map task per partition.
// Algorithm 3 has each node re-send its adjacency under its own key for
// the reduce to meet it again; here a node's state
// never enters the shuffle — only the proposals to its neighbors do, as
// four-byte scalars — and the reduce is handed the record where it
// resides. A round's reduce output — the surviving nodes' states,
// nothing else — is the next round's input where the reduce wrote it: no
// rebuild, no re-hashing, and on the dist backend no fetch, between
// rounds. The one thing the driver needs per round, the matched edge
// ids, comes back as the job's side output.
func GreedyMR(ctx context.Context, g *graph.Bipartite, opts GreedyMROptions) (*Result, error) {
	driver := mapreduce.NewDriver(opts.MR)
	defer driver.Release()
	driver.MaxRounds = opts.MaxRounds
	if driver.MaxRounds == 0 {
		driver.MaxRounds = 4*g.NumEdges() + 16
	}

	view, err := newNodeView(g, true)
	var state *mapreduce.Dataset[graph.NodeID, nodeState]
	if err == nil {
		state, err = mapreduce.BuildDS(driver, "greedymr-view", view.key.params(), view.build)
	}
	if err != nil {
		return nil, fmt.Errorf("core: greedymr: %w", err)
	}
	var matched []int32 // cumulative, kept sorted by edge id
	var trace []float64

	final, err := mapreduce.Loop(ctx, driver, state, func(
		ctx context.Context, round int, st *mapreduce.Dataset[graph.NodeID, nodeState],
	) (*mapreduce.Dataset[graph.NodeID, nodeState], error) {
		if opts.StopAfterRounds > 0 && round >= opts.StopAfterRounds {
			return nil, nil // any-time stop: the current solution is feasible
		}
		next, err := runNodeJob(ctx, driver, "greedymr-round", nil, st, greedyMap, greedyReduce(g))
		if err != nil {
			return nil, err
		}
		var roundMatched []int32
		for _, part := range next.Side() {
			for _, ei := range part {
				roundMatched = append(roundMatched, int32(ei))
			}
		}
		// Keep the cumulative matched set sorted by edge id and sum it
		// in that order — the same order NewMatching uses — so the
		// final trace entry equals Matching.Value exactly
		// (floating-point addition is order-sensitive) regardless of
		// the order the reduce tasks reported the edges in.
		slices.Sort(roundMatched)
		matched = mergeSortedInt32(matched, roundMatched)
		trace = append(trace, matchedValue(g, matched))
		return next, nil
	})
	// Loop leaves the final state to its caller: empty at the fixed
	// point, live under StopAfterRounds. Either way nothing reads it, and
	// on the dist backend it is still registered on the cluster.
	final.Recycle()
	if err != nil {
		return nil, err
	}

	res := &Result{
		Matching:   NewMatching(g, matched),
		Rounds:     driver.Rounds(),
		Phases:     driver.Rounds(),
		Shuffle:    driver.Total(),
		RoundStats: driver.Trace(),
		ValueTrace: trace,
	}
	return res, nil
}

// greedyMap implements the map phase of Algorithm 3: node v proposes its
// top-b(v) incident edges — the first B entries of its weight-ordered
// adjacency (see nodeView) — each message's flag saying whether the
// edge is proposed. Its own state it only reads: the engine hands the
// record to v's reduce call.
func greedyMap(_ graph.NodeID, st nodeState, out mapreduce.Emitter[graph.NodeID, edgeMsg]) error {
	for i, h := range st.Adj {
		out.Emit(h.Other, edgeFlag(h.ID, i < st.B))
	}
	return nil
}

// greedyReduce implements the reduce phase of Algorithm 3: node u
// intersects its own proposals with its neighbors' and updates its state.
// Edges for which no message arrived have a dead neighbor and are
// dropped. The proposal set of u is the same Adj[:B] prefix the mapper
// used, so both endpoints of an edge reach the same verdict.
//
// One round costs O(messages + live adjacency) per node: each neighbor
// message stamps its edge's mark, each adjacency entry reads its mark
// back, and the stamps are wiped again — no per-node set, sort or
// search. The surviving adjacency list is compacted in place into the
// node's own array (the reduce owns it: the previous round's holders
// are dead by the time this round's reduce runs, and writes trail reads
// in the compaction), preserving its weight order, so a steady-state
// round allocates nothing per key. That array is the round's input
// record's, so the reduce phase consumes its input — the engine's
// contract for state jobs (mapreduce.DistCluster restores the input of an
// attempt that lost a worker from its lineage).
//
// A surviving node is emitted with its next state; a matched edge is
// reported once, by its item-side endpoint, on the task's side output.
func greedyReduce(g *graph.Bipartite) mapreduce.StateReduceFunc[graph.NodeID, nodeState, edgeMsg, graph.NodeID, nodeState] {
	return func(u graph.NodeID, state *nodeState, msgs []edgeMsg, out mapreduce.Emitter[graph.NodeID, nodeState]) error {
		// A node without a record died in an earlier round; stray
		// proposals from neighbors that have not yet noticed are ignored.
		if state == nil {
			return nil
		}
		table := edgeMarkPool.Get().(*[]uint8)
		defer edgeMarkPool.Put(table)
		marks := edgeMarks(table, g.NumEdges())
		for _, m := range msgs {
			m.stamp(marks)
		}
		adj := state.Adj
		next := nodeState{B: state.B, Adj: adj[:0]}
		for i, h := range adj {
			switch mark := marks[h.ID]; {
			case mark == 0:
				// Neighbor is gone: drop the edge.
			case mark&markFlag != 0 && i < state.B:
				// Both endpoints proposed: matched.
				next.B--
				if g.SideOf(u) == graph.ItemSide {
					out.(mapreduce.SideEmitter).EmitSide(uint64(h.ID))
				}
			default:
				next.Adj = append(next.Adj, h)
			}
		}
		if next.B > 0 && len(next.Adj) > 0 {
			out.Emit(u, next)
		}
		for _, m := range msgs {
			marks[m.edge()] = 0
		}
		return nil
	}
}

// matchedValue sums the weights of the matched edges, which the caller
// keeps in ascending edge-id order, mirroring NewMatching's
// accumulation order so the two agree bit-for-bit.
func matchedValue(g *graph.Bipartite, sorted []int32) float64 {
	value := 0.0
	for _, ei := range sorted {
		value += g.Edge(int(ei)).Weight
	}
	return value
}

// mergeSortedInt32 merges two ascending slices into a fresh ascending
// slice; per round this is O(matched + new) instead of re-sorting the
// whole cumulative set.
func mergeSortedInt32(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
