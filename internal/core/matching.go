// Package core implements the paper's primary contribution: approximate
// maximum-weight b-matching algorithms for the MapReduce model.
//
//   - Greedy: the classical centralized greedy, a 1/2-approximation
//     (paper Appendix A, Theorem 2). Used as the quality reference.
//   - GreedyMR: the MapReduce adaptation of greedy (paper Section 5.4,
//     Algorithm 3). Feasible at every iteration (any-time stopping),
//     but may need a linear number of rounds.
//   - MaximalBMatching: the randomized distributed maximal b-matching
//     procedure of Garrido, Jarominek, Lingas, Rytter (IPL 1996), the
//     subroutine of the stack algorithms (paper Section 5.3).
//   - StackMR / StackGreedyMR: the primal-dual stack algorithm (paper
//     Section 5.2, Algorithm 2), approximation 1/(6+ε) with capacity
//     violations bounded by a factor (1+ε), and its greedy-marking
//     variant.
//   - StackSequential: the centralized stack algorithm, used as a
//     reference implementation.
//
// All algorithms consume a graph.Bipartite whose capacities have been
// set (fractional capacities are rounded up to integers, matching the
// paper's b: V → N) and produce a Result holding the matching, the
// MapReduce round count, and per-round traces.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// Matching is a subset of the edges of a bipartite graph, stored as
// sorted edge indexes.
type Matching struct {
	g     *graph.Bipartite
	edges []int32
	value float64
}

// NewMatching builds a Matching over g from a set of edge indexes. The
// indexes are copied, sorted, and deduplicated.
func NewMatching(g *graph.Bipartite, edgeIdx []int32) *Matching {
	cp := append([]int32(nil), edgeIdx...)
	if !slices.IsSorted(cp) { // GreedyMR hands over its merged, sorted set
		slices.Sort(cp)
	}
	out := cp[:0]
	for i, e := range cp {
		if i > 0 && cp[i-1] == e {
			continue
		}
		out = append(out, e)
	}
	m := &Matching{g: g, edges: out}
	for _, ei := range out {
		m.value += g.Edge(int(ei)).Weight
	}
	return m
}

// Graph returns the underlying graph.
func (m *Matching) Graph() *graph.Bipartite { return m.g }

// Size returns the number of matched edges.
func (m *Matching) Size() int { return len(m.edges) }

// Value returns the total weight of the matching, the objective the
// paper maximizes.
func (m *Matching) Value() float64 { return m.value }

// EdgeIndexes returns the sorted matched edge indexes. Callers must not
// modify the slice.
func (m *Matching) EdgeIndexes() []int32 { return m.edges }

// Edges returns the matched edges.
func (m *Matching) Edges() []graph.Edge {
	out := make([]graph.Edge, len(m.edges))
	for i, ei := range m.edges {
		out[i] = m.g.Edge(int(ei))
	}
	return out
}

// Contains reports whether edge index ei is in the matching.
func (m *Matching) Contains(ei int32) bool {
	i := sort.Search(len(m.edges), func(i int) bool { return m.edges[i] >= ei })
	return i < len(m.edges) && m.edges[i] == ei
}

// Degrees returns |M(v)| for every node: the number of matched edges
// incident to each node.
func (m *Matching) Degrees() []int {
	deg := make([]int, m.g.NumNodes())
	for _, ei := range m.edges {
		e := m.g.Edge(int(ei))
		deg[e.Item]++
		deg[e.Consumer]++
	}
	return deg
}

// Validate checks that the matching is a subset of distinct edges and
// that every node's matched degree is at most slack × ⌈b(v)⌉ (use slack=1
// for strict feasibility; the stack algorithms allow slack 1+ε). It
// returns the first violation found.
func (m *Matching) Validate(slack float64) error {
	if slack < 1 {
		return fmt.Errorf("core: slack %v < 1", slack)
	}
	for _, ei := range m.edges {
		if ei < 0 || int(ei) >= m.g.NumEdges() {
			return fmt.Errorf("core: matched edge index %d out of range", ei)
		}
	}
	for v, d := range m.Degrees() {
		limit := slack * float64(intCap(m.g, graph.NodeID(v)))
		if float64(d) > limit+1e-9 {
			return fmt.Errorf("core: node %d has matched degree %d > %.3f (b=%d, slack=%.3f)",
				v, d, limit, intCap(m.g, graph.NodeID(v)), slack)
		}
	}
	return nil
}

// Violation returns the average relative capacity violation
//
//	ε′ = (1/|V|) Σ_v max{|M(v)| − b(v), 0} / b(v)
//
// exactly as defined in the paper's Section 6 (nodes with b(v)=0 cannot
// hold matched edges and contribute zero). This is the quantity plotted
// in Figure 4.
func (m *Matching) Violation() float64 {
	deg := m.Degrees()
	var sum float64
	n := m.g.NumNodes()
	if n == 0 {
		return 0
	}
	for v := 0; v < n; v++ {
		b := intCap(m.g, graph.NodeID(v))
		if b == 0 {
			continue
		}
		if over := deg[v] - b; over > 0 {
			sum += float64(over) / float64(b)
		}
	}
	return sum / float64(n)
}

// MaxViolationFactor returns max_v |M(v)| / b(v) over nodes with matched
// edges, i.e. the worst-case capacity stretch (1 means feasible).
func (m *Matching) MaxViolationFactor() float64 {
	deg := m.Degrees()
	worst := 0.0
	for v := 0; v < m.g.NumNodes(); v++ {
		if deg[v] == 0 {
			continue
		}
		b := intCap(m.g, graph.NodeID(v))
		if b == 0 {
			return math.Inf(1)
		}
		if f := float64(deg[v]) / float64(b); f > worst {
			worst = f
		}
	}
	return worst
}

// intCap returns ⌈b(v)⌉, the integral capacity every algorithm in this
// package enforces.
func intCap(g *graph.Bipartite, v graph.NodeID) int {
	return g.IntCapacity(v)
}

// Result bundles a matching with the cost of computing it.
type Result struct {
	// Matching is the solution.
	Matching *Matching
	// Rounds is the number of MapReduce jobs executed (0 for the
	// centralized algorithms). This is the paper's efficiency metric.
	Rounds int
	// Phases counts algorithm-level iterations: greedy rounds for
	// GreedyMR, stack layers for the stack algorithms.
	Phases int
	// Shuffle aggregates the MapReduce record statistics over all
	// rounds.
	Shuffle mapreduce.Stats
	// RoundStats holds the per-job statistics in execution order.
	RoundStats []mapreduce.Stats
	// ValueTrace, when non-nil, holds the matching value at the end of
	// each phase; GreedyMR fills it because its any-time property
	// (paper Figure 5) is measured from this trace.
	ValueTrace []float64
	// Certificate, filled by the primal-dual stack algorithms, carries
	// the final dual variables and certifies a per-run upper bound on
	// the optimum (see DualCertificate).
	Certificate *DualCertificate
}

// FractionOfFinal rescales the value trace to fractions of the final
// value (the y-axis of the paper's Figure 5). Returns nil when there is
// no trace or the final value is zero.
func (r *Result) FractionOfFinal() []float64 {
	if len(r.ValueTrace) == 0 {
		return nil
	}
	final := r.ValueTrace[len(r.ValueTrace)-1]
	if final == 0 {
		return nil
	}
	out := make([]float64, len(r.ValueTrace))
	for i, v := range r.ValueTrace {
		out[i] = v / final
	}
	return out
}

// IterationsToFraction returns the smallest 1-based phase index at which
// the trace reaches the given fraction of the final value, or 0 when
// there is no trace. The paper reports the iteration at which GreedyMR
// reaches 95% of its final value.
func (r *Result) IterationsToFraction(frac float64) int {
	fr := r.FractionOfFinal()
	for i, f := range fr {
		if f >= frac-1e-12 {
			return i + 1
		}
	}
	return 0
}
