package core

import (
	"context"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// This file implements the randomized distributed maximal b-matching
// procedure of Garrido, Jarominek, Lingas and Rytter (IPL 57(2), 1996)
// in MapReduce, following the adaptation in Section 5.3 of the paper.
// Each iteration consists of four stages, each one MapReduce job over the
// node-based view of the graph:
//
//	marking   — every node v marks ⌈b(v)/2⌉ of its incident edges
//	            (uniformly at random, or the heaviest ones under the
//	            greedy strategy of StackGreedyMR);
//	selection — every node selects max{⌊b(v)/2⌋, 1} edges among those
//	            marked by its neighbors, uniformly at random;
//	matching  — a node with capacity 1 and two incident selected edges
//	            deletes one of them at random, making the selected set F
//	            a valid b-matching;
//	cleanup   — F joins the matching, capacities decrease, saturated
//	            nodes leave the graph together with their edges.
//
// Iterations repeat until no edge is left; the expected number of
// iterations is O(log^3 n). An edge disappears only by being matched or
// by losing an endpoint to saturation, which is exactly the maximality
// guarantee the stack algorithm requires.
//
// Every stage is a state job (runNodeJob): no node state enters the
// shuffle. The marking, selection and matching maps write their own
// node's decision — markedBySelf, selBySelf, inF — into the node's
// resident record and send each neighbor one edgeMsg; the stage's reduce,
// handed the same record, sets the flag it learns from the other endpoint
// and compacts the adjacency in place. The cleanup map only reads.

// mmEdge is one endpoint's view of an edge during the maximal-matching
// procedure, with the paper's per-edge state (E/K/F/D/M) tracked as
// flags from the perspective of this endpoint.
type mmEdge struct {
	half
	markedBySelf  bool
	markedByOther bool
	selBySelf     bool
	selByOther    bool
	inF           bool
}

// inSelected reports whether the edge is in the selected set F: it was
// marked by one endpoint and selected by the other. Both endpoints
// compute this from the same four flags, so their views agree.
func (e *mmEdge) inSelected() bool {
	return (e.markedBySelf && e.selByOther) || (e.markedByOther && e.selBySelf)
}

// mmNode is the per-node record of the maximal-matching procedure.
type mmNode struct {
	B   int
	Adj []mmEdge
}

// flagged is the record a maximal matching over capacity b and adjacency
// adj starts from: no flag set, in a fresh adjacency array the stages then
// own.
func flagged(b int, adj []half) mmNode {
	out := make([]mmEdge, len(adj))
	for i, h := range adj {
		out[i] = mmEdge{half: h}
	}
	return mmNode{B: b, Adj: out}
}

// MarkingStrategy selects which edges a node marks in the marking stage.
type MarkingStrategy int

const (
	// MarkRandom marks edges uniformly at random (StackMR).
	MarkRandom MarkingStrategy = iota
	// MarkHeaviest marks the heaviest edges (StackGreedyMR).
	MarkHeaviest
)

// String returns the strategy name.
func (s MarkingStrategy) String() string {
	if s == MarkHeaviest {
		return "heaviest"
	}
	return "random"
}

// maximalConfig parameterizes one maximal b-matching computation.
type maximalConfig struct {
	strategy MarkingStrategy
	seed     int64
	// numEdges is the edge count of the underlying graph: edge ids in the
	// node view index the reduces' mark tables (see edgeMarkPool).
	numEdges int
}

// mmStages are the three flag-propagation stages of an iteration, in
// order, by job name and map; unifyReduce, told the name, sets the flag
// the stage is about.
var mmStages = [...]struct {
	name  string
	mapFn func(cfg maximalConfig, iter int) mapreduce.MapFunc[graph.NodeID, mmNode, graph.NodeID, edgeMsg]
}{
	{"mm-marking", markingMap},
	{"mm-selection", selectionMap},
	{"mm-matching", matchingMap},
}

// nodeRand returns a deterministic per-node, per-iteration random source:
// local random decisions in mappers must be reproducible and independent
// of scheduling. The stream is math/rand's for the mixed seed, draw for
// draw (the goldens pin it), served by a nodeSource: the first 273 draws
// in closed form with no seeded 607-word state, the library's own source
// from draw 274 (noderand.go); Perm, Intn and their rejection loops stay
// the library's. Most nodes have nothing to choose (⌈b/2⌉ covers the
// whole adjacency, or no more edges were marked than may be selected), so
// the stage maps build a source only on the branch that draws from it; a
// source serves one node in one stage, so skipping an unused one changes
// no draw.
func nodeRand(seed int64, v graph.NodeID, iter int) *rand.Rand {
	h := int64(mix64(uint64(seed) ^ uint64(uint32(v))<<20 ^ uint64(iter)*0x9e37))
	src := new(nodeSource)
	src.Seed(h)
	return rand.New(src)
}

// maximalBMatching computes a maximal b-matching over the flagged node
// records start (see flagged), running its jobs under the given driver,
// and returns the matched edge ids. start is the loop's first state, which
// the loop consumes. Every iteration chains partition-resident — on dist,
// on the workers: each stage consumes the previous one's output where it
// resides, the cleanup stage's output is the next iteration's input, and
// only the per-edge flag messages cross partitions. The matched edge ids
// come back as the cleanup stage's side output.
func maximalBMatching(
	ctx context.Context,
	driver *mapreduce.Driver,
	start *mapreduce.Dataset[graph.NodeID, mmNode],
	cfg maximalConfig,
) ([]int32, error) {
	var matched []int32
	final, err := mapreduce.Loop(ctx, driver, start, func(
		ctx context.Context, iter int, cur *mapreduce.Dataset[graph.NodeID, mmNode],
	) (*mapreduce.Dataset[graph.NodeID, mmNode], error) {
		params := func() []byte { return encodeMMParams(cfg, iter) }
		// Each stage's output is consumed by the next stage; recycling
		// the intermediates hands their partition buffers straight to
		// the following job in this same iteration. The iteration's
		// input (the Loop state) is recycled by Loop itself.
		st := cur
		for _, s := range mmStages {
			out, err := runNodeJob(ctx, driver, s.name, params, st,
				s.mapFn(cfg, iter), unifyReduce(s.name, cfg.numEdges))
			if st != cur {
				st.Recycle()
			}
			if err != nil {
				return nil, err
			}
			st = out
		}
		next, err := runNodeJob(ctx, driver, "mm-cleanup", nil, st, cleanupMap, cleanupReduce(cfg.numEdges))
		st.Recycle()
		if err != nil {
			return nil, err
		}
		for _, part := range next.Side() {
			for _, ei := range part {
				matched = append(matched, int32(ei))
			}
		}
		return next, nil
	})
	// The final state is empty at the fixed point; on dist it is still
	// registered on the cluster.
	final.Recycle()
	return matched, err
}

// markingMap marks ⌈B/2⌉ edges per node, from B and the adjacency's
// length, weights and ids. The flag sent to the other endpoint means "I
// marked this edge".
func markingMap(cfg maximalConfig, iter int) mapreduce.MapFunc[graph.NodeID, mmNode, graph.NodeID, edgeMsg] {
	return func(v graph.NodeID, st mmNode, out mapreduce.Emitter[graph.NodeID, edgeMsg]) error {
		k := (st.B + 1) / 2
		all := k >= len(st.Adj) // nothing to choose, so nothing to draw
		for i := range st.Adj {
			st.Adj[i].markedBySelf = all
		}
		switch {
		case all:
		case cfg.strategy == MarkHeaviest:
			for _, i := range topByWeight(halves(st.Adj), k) {
				st.Adj[i].markedBySelf = true
			}
		default:
			for _, i := range pickRandom(len(st.Adj), k, nodeRand(cfg.seed, v, iter*4)) {
				st.Adj[i].markedBySelf = true
			}
		}
		for _, e := range st.Adj {
			out.Emit(e.Other, edgeFlag(e.ID, e.markedBySelf))
		}
		return nil
	}
}

// selectionMap selects max{⌊B/2⌋, 1} edges among those marked by
// neighbors (markedByOther, set by the marking reduce). The flag sent
// means "I selected your mark".
func selectionMap(cfg maximalConfig, iter int) mapreduce.MapFunc[graph.NodeID, mmNode, graph.NodeID, edgeMsg] {
	return func(v graph.NodeID, st mmNode, out mapreduce.Emitter[graph.NodeID, edgeMsg]) error {
		k := max(st.B/2, 1)
		marked := 0
		for i := range st.Adj {
			if st.Adj[i].markedByOther {
				marked++
			}
		}
		draw := k < marked // otherwise every marked edge is selected
		for i := range st.Adj {
			st.Adj[i].selBySelf = st.Adj[i].markedByOther && !draw
		}
		if draw {
			candidates := make([]int, 0, marked)
			for i := range st.Adj {
				if st.Adj[i].markedByOther {
					candidates = append(candidates, i)
				}
			}
			for _, i := range pickFrom(candidates, k, nodeRand(cfg.seed, v, iter*4+1)) {
				st.Adj[i].selBySelf = true
			}
		}
		for _, e := range st.Adj {
			out.Emit(e.Other, edgeFlag(e.ID, e.selBySelf))
		}
		return nil
	}
}

// matchingMap enforces validity at capacity-1 nodes: keep one incident
// selected edge at random, drop the rest. inF is decided from the four
// mark and selection flags. The flag sent means "I dropped this edge from
// F".
func matchingMap(cfg maximalConfig, iter int) mapreduce.MapFunc[graph.NodeID, mmNode, graph.NodeID, edgeMsg] {
	return func(v graph.NodeID, st mmNode, out mapreduce.Emitter[graph.NodeID, edgeMsg]) error {
		selected := 0
		for i := range st.Adj {
			if st.Adj[i].inSelected() {
				selected++
			}
		}
		// keep is the adjacency index of the one selected edge a
		// capacity-1 node holds on to; negative when nothing is dropped.
		keep := -1
		if st.B == 1 && selected > 1 {
			nth := nodeRand(cfg.seed, v, iter*4+2).Intn(selected)
			for i := range st.Adj {
				if st.Adj[i].inSelected() {
					if nth == 0 {
						keep = i
						break
					}
					nth--
				}
			}
		}
		for i := range st.Adj {
			e := &st.Adj[i]
			e.inF = e.inSelected() && (keep < 0 || i == keep)
			out.Emit(e.Other, edgeFlag(e.ID, e.inSelected() && !e.inF))
		}
		return nil
	}
}

// unifyReduce merges the two endpoint views of every edge after a stage:
// the record carries this endpoint's decision, written by the stage's
// map, and the messages deliver the other endpoint's, which the reduce
// sets as the flag the stage is about. An edge no message arrived for
// lost its other endpoint and is dropped; the adjacency is compacted in
// place. The messages are stamped into a borrowed edge-mark table and
// read back per adjacency entry, as in greedyReduce: no per-call set.
func unifyReduce(stage string, numEdges int) mapreduce.StateReduceFunc[graph.NodeID, mmNode, edgeMsg, graph.NodeID, mmNode] {
	return func(v graph.NodeID, state *mmNode, msgs []edgeMsg, out mapreduce.Emitter[graph.NodeID, mmNode]) error {
		// A node without a record died in an earlier iteration.
		if state == nil {
			return nil
		}
		table := edgeMarkPool.Get().(*[]uint8)
		defer edgeMarkPool.Put(table)
		marks := edgeMarks(table, numEdges)
		for _, m := range msgs {
			m.stamp(marks)
		}
		kept := state.Adj[:0]
		for _, e := range state.Adj {
			mark := marks[e.ID]
			if mark == 0 {
				// Dead neighbor: edge disappears.
				continue
			}
			flag := mark&markFlag != 0
			switch stage {
			case "mm-marking":
				e.markedByOther = flag
			case "mm-selection":
				e.selByOther = flag
			case "mm-matching":
				// The other endpoint may have dropped the edge from F.
				if flag {
					e.inF = false
				}
			}
			kept = append(kept, e)
		}
		state.Adj = kept
		out.Emit(v, *state)
		for _, m := range msgs {
			marks[m.edge()] = 0
		}
		return nil
	}
}

// cleanupMap tells every neighbor it keeps an edge to — all but the F
// edges, which join the matching — whether this node is still alive once
// they did, and reports its matched edges to itself. Matched edges are
// final; they are reported on one side only: the item side of a
// bipartite edge is the endpoint with the smaller id, but rather than
// assuming that, both ends could report and the caller dedupe; reporting
// from the endpoint with smaller id is simpler and side-agnostic.
func cleanupMap(v graph.NodeID, st mmNode, out mapreduce.Emitter[graph.NodeID, edgeMsg]) error {
	matched := 0
	for i := range st.Adj {
		if st.Adj[i].inF {
			matched++
		}
	}
	alive := st.B > matched
	for _, e := range st.Adj {
		if !e.inF {
			out.Emit(e.Other, edgeFlag(e.ID, alive))
		}
	}
	for _, e := range st.Adj {
		if e.inF && v < e.Other {
			out.Emit(v, edgeFlag(e.ID, true))
		}
	}
	return nil
}

// cleanupReduce is the cleanup stage's reduce: matched edges leave the
// graph and are reported, capacities decrease, saturated nodes die and
// their remaining edges are removed from the neighbors' views. It drops
// the F edges, decrements the capacity by their count, keeps only edges
// whose other endpoint is still alive, clears their flags, and emits the
// record — the next iteration's input — unless the node is saturated or
// isolated. The node's matched-edge reports go to the side output. A
// message for a non-F edge of the node's own adjacency is an alive-beacon
// from the neighbor; any other message is this node's own matched-edge
// report (matched edges leave both endpoints' views, so the neighbor
// never beacons them). The non-F edges are stamped into a borrowed
// edge-mark table (markSeen) and the beacons onto it (markFlag), so
// telling the two kinds of message apart is one byte read per message.
func cleanupReduce(numEdges int) mapreduce.StateReduceFunc[graph.NodeID, mmNode, edgeMsg, graph.NodeID, mmNode] {
	return func(v graph.NodeID, state *mmNode, msgs []edgeMsg, out mapreduce.Emitter[graph.NodeID, mmNode]) error {
		if state == nil {
			return nil
		}
		table := edgeMarkPool.Get().(*[]uint8)
		defer edgeMarkPool.Put(table)
		marks := edgeMarks(table, numEdges)
		for _, e := range state.Adj {
			if !e.inF {
				marks[e.ID] = markSeen
			}
		}
		for _, m := range msgs {
			switch {
			case marks[m.edge()] != 0:
				if m.flag() {
					marks[m.edge()] |= markFlag
				}
			case m.flag():
				out.(mapreduce.SideEmitter).EmitSide(uint64(m.edge()))
			}
		}
		kept := state.Adj[:0]
		for _, e := range state.Adj {
			if e.inF {
				state.B--
				continue
			}
			if marks[e.ID]&markFlag != 0 {
				kept = append(kept, mmEdge{half: e.half})
			}
			marks[e.ID] = 0
		}
		state.Adj = kept
		if state.B > 0 && len(state.Adj) > 0 {
			out.Emit(v, *state)
		}
		return nil
	}
}

// halves projects flagged adjacency entries back to plain halves for the
// shared topByWeight helper.
func halves(adj []mmEdge) []half {
	out := make([]half, len(adj))
	for i, e := range adj {
		out[i] = e.half
	}
	return out
}

// pickRandom picks k distinct indexes from [0, n) uniformly at random
// (all of them when k ≥ n), in deterministic order given the source.
func pickRandom(n, k int, rng *rand.Rand) []int {
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	perm := rng.Perm(n)
	return perm[:k]
}

// pickFrom picks min(k, len(candidates)) elements from candidates
// uniformly at random.
func pickFrom(candidates []int, k int, rng *rand.Rand) []int {
	if k >= len(candidates) {
		return candidates
	}
	perm := rng.Perm(len(candidates))
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = candidates[perm[i]]
	}
	return out
}

// mix64 is the SplitMix64 finalizer (duplicated from the mapreduce
// package to keep the packages decoupled).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
