// Package capacity implements the capacity-assignment policies of the
// paper's Section 4 ("Capacity constraints") and Section 6 (the concrete
// choices made for the flickr and yahoo-answers datasets).
//
// Consumer capacities derive from user activity: b(u) = α·n(u), with
// n(u) an activity proxy (photos posted, answers written) and α a
// simulation knob for the overall activity level. The consumer-side
// total B = Σ_u b(u) is the distribution bandwidth, which item-side
// policies then split:
//
//   - Uniform: no quality assessment, b(t) = max{1, B/|T|};
//   - QualityProportional: b(t) = max{1, q(t)·B} for normalized quality
//     scores q;
//   - FavoritesProportional: the flickr choice, b(p) = f(p)·B/Σf(q);
//   - ConstantPerItem: the yahoo-answers choice, b(q) = B/|Q| for every
//     question.
package capacity

import (
	"fmt"

	"repro/internal/graph"
)

// ConsumerActivity assigns consumer capacities b(u) = α·n(u) from the
// activity counts n (indexed by consumer). Capacities below 1 are
// clamped to 1 so that every consumer can receive at least one item. It
// returns B, the total consumer capacity (the distribution bandwidth).
func ConsumerActivity(g *graph.Bipartite, n []float64, alpha float64) (float64, error) {
	if len(n) != g.NumConsumers() {
		return 0, fmt.Errorf("capacity: %d activity counts for %d consumers", len(n), g.NumConsumers())
	}
	if alpha <= 0 {
		return 0, fmt.Errorf("capacity: non-positive alpha %v", alpha)
	}
	var total float64
	for j, nu := range n {
		if nu < 0 {
			return 0, fmt.Errorf("capacity: negative activity %v for consumer %d", nu, j)
		}
		b := alpha * nu
		if b < 1 {
			b = 1
		}
		if err := setCapacity(g, g.ConsumerID(j), b); err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// UniformItems divides the bandwidth equally: b(t) = max{1, B/|T|}.
func UniformItems(g *graph.Bipartite, bandwidth float64) error {
	if bandwidth < 0 {
		return fmt.Errorf("capacity: negative bandwidth %v", bandwidth)
	}
	nT := g.NumItems()
	if nT == 0 {
		return nil
	}
	b := bandwidth / float64(nT)
	if b < 1 {
		b = 1
	}
	for i := 0; i < nT; i++ {
		if err := setCapacity(g, g.ItemID(i), b); err != nil {
			return err
		}
	}
	return nil
}

// QualityProportional divides the bandwidth in proportion to normalized
// quality scores: b(t) = max{1, q(t)·B}. The scores are normalized
// internally (Σq = 1), matching the paper's assumption.
func QualityProportional(g *graph.Bipartite, quality []float64, bandwidth float64) error {
	if len(quality) != g.NumItems() {
		return fmt.Errorf("capacity: %d quality scores for %d items", len(quality), g.NumItems())
	}
	var sum float64
	for i, q := range quality {
		if q < 0 {
			return fmt.Errorf("capacity: negative quality %v for item %d", q, i)
		}
		sum += q
	}
	if sum == 0 {
		return UniformItems(g, bandwidth)
	}
	for i, q := range quality {
		b := q / sum * bandwidth
		if b < 1 {
			b = 1
		}
		if err := setCapacity(g, g.ItemID(i), b); err != nil {
			return err
		}
	}
	return nil
}

// setCapacity sets b(v), or refuses a capacity the graph cannot hold:
// above graph.MaxCapacity, or NaN from a NaN activity, α or quality.
func setCapacity(g *graph.Bipartite, v graph.NodeID, b float64) error {
	if !(b <= graph.MaxCapacity) {
		return fmt.Errorf("capacity: node %d: capacity %v is not in [1, %d]", v, b, graph.MaxCapacity)
	}
	g.SetCapacity(v, b)
	return nil
}

// FavoritesProportional is the flickr policy of Section 6:
// b(p) = f(p)·B/Σf(q), with f the favorite counts. Items with zero
// favorites get capacity 1 so they keep a chance to be distributed.
func FavoritesProportional(g *graph.Bipartite, favorites []float64, bandwidth float64) error {
	return QualityProportional(g, favorites, bandwidth)
}

// ConstantPerItem is the yahoo-answers policy of Section 6: every
// question gets the same capacity b(q) = max{1, B/|Q|}.
func ConstantPerItem(g *graph.Bipartite, bandwidth float64) error {
	return UniformItems(g, bandwidth)
}

// Summary describes the capacity distribution of one side of the graph
// (Figure 7 plots these distributions).
type Summary struct {
	Side  graph.Side
	Count int
	Min   float64
	Max   float64
	Mean  float64
	Total float64
}

// Summarize computes the capacity summary of one side.
func Summarize(g *graph.Bipartite, side graph.Side) Summary {
	s := Summary{Side: side}
	first := true
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if g.SideOf(id) != side {
			continue
		}
		b := g.Capacity(id)
		s.Count++
		s.Total += b
		if first || b < s.Min {
			s.Min = b
		}
		if first || b > s.Max {
			s.Max = b
		}
		first = false
	}
	if s.Count > 0 {
		s.Mean = s.Total / float64(s.Count)
	}
	return s
}
