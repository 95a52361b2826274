package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Bipartite {
	t.Helper()
	g := NewBipartite(3, 2)
	g.SetCapacity(g.ItemID(0), 1)
	g.SetCapacity(g.ItemID(1), 2)
	g.SetCapacity(g.ItemID(2), 1)
	g.SetCapacity(g.ConsumerID(0), 2)
	g.SetCapacity(g.ConsumerID(1), 1)
	g.AddEdge(g.ItemID(0), g.ConsumerID(0), 0.5)
	g.AddEdge(g.ItemID(1), g.ConsumerID(0), 0.9)
	g.AddEdge(g.ItemID(1), g.ConsumerID(1), 0.3)
	g.AddEdge(g.ItemID(2), g.ConsumerID(1), 0.7)
	return g
}

func TestSizes(t *testing.T) {
	g := small(t)
	if g.NumItems() != 3 || g.NumConsumers() != 2 || g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Errorf("sizes: items=%d consumers=%d nodes=%d edges=%d",
			g.NumItems(), g.NumConsumers(), g.NumNodes(), g.NumEdges())
	}
}

func TestIDConversions(t *testing.T) {
	g := small(t)
	if g.ItemID(2) != 2 {
		t.Errorf("ItemID(2) = %d", g.ItemID(2))
	}
	if g.ConsumerID(0) != 3 {
		t.Errorf("ConsumerID(0) = %d", g.ConsumerID(0))
	}
	if g.SideOf(2) != ItemSide || g.SideOf(3) != ConsumerSide {
		t.Error("SideOf wrong")
	}
	if ItemSide.String() != "item" || ConsumerSide.String() != "consumer" {
		t.Error("Side.String wrong")
	}
}

func TestIDPanics(t *testing.T) {
	g := small(t)
	for name, fn := range map[string]func(){
		"item out of range":     func() { g.ItemID(3) },
		"negative item":         func() { g.ItemID(-1) },
		"consumer out of range": func() { g.ConsumerID(2) },
		"edge wrong side":       func() { g.AddEdge(g.ConsumerID(0), g.ConsumerID(1), 1) },
		"zero weight":           func() { g.AddEdge(g.ItemID(0), g.ConsumerID(0), 0) },
		"nan weight":            func() { g.AddEdge(g.ItemID(0), g.ConsumerID(0), math.NaN()) },
		"negative capacity":     func() { g.SetCapacity(0, -1) },
		"capacity bad node":     func() { g.SetCapacity(99, 1) },
		"negative part":         func() { NewBipartite(-1, 2) },
		"parts past int32 ids":  func() { NewBipartite(math.MaxInt32, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGrow(t *testing.T) {
	g := NewBipartite(2, 2)
	g.Grow(3)
	g.AddEdge(g.ItemID(0), g.ConsumerID(0), 1)
	first := &g.Edges()[0]
	g.AddEdge(g.ItemID(1), g.ConsumerID(0), 2)
	g.AddEdge(g.ItemID(1), g.ConsumerID(1), 3)
	if g.NumEdges() != 3 || &g.Edges()[0] != first {
		t.Fatalf("%d edges, reallocated %v: Grow(3) did not make room for 3 edges",
			g.NumEdges(), &g.Edges()[0] != first)
	}
}

func TestCapacities(t *testing.T) {
	g := small(t)
	if g.Capacity(g.ItemID(1)) != 2 {
		t.Errorf("Capacity = %v", g.Capacity(g.ItemID(1)))
	}
	if got := g.TotalCapacity(ItemSide); got != 4 {
		t.Errorf("TotalCapacity(items) = %v, want 4", got)
	}
	if got := g.TotalCapacity(ConsumerSide); got != 3 {
		t.Errorf("TotalCapacity(consumers) = %v, want 3", got)
	}
	g.SetAllCapacities(ItemSide, 5)
	if g.TotalCapacity(ItemSide) != 15 {
		t.Error("SetAllCapacities did not apply")
	}
	if g.TotalCapacity(ConsumerSide) != 3 {
		t.Error("SetAllCapacities leaked to other side")
	}
	g.SetCapacity(0, 1.3)
	if g.IntCapacity(0) != 2 {
		t.Errorf("IntCapacity(1.3) = %d, want 2", g.IntCapacity(0))
	}
}

// TestCapacityLimit: capacities up to MaxCapacity = 2³¹−1 are accepted
// and convert to an int exactly; 2³¹ and 1e19 are refused by SetCapacity,
// Read and Validate. 1e19 once became a capacity of −2⁶³ under
// IntCapacity, and every algorithm left the node unmatched.
func TestCapacityLimit(t *testing.T) {
	for _, c := range []struct {
		b  float64
		ok bool
	}{{1<<31 - 1, true}, {1 << 31, false}, {1e19, false}} {
		g := NewBipartite(1, 1)
		func() {
			defer func() {
				if r := recover(); (r == nil) != c.ok {
					t.Errorf("SetCapacity(%v): panic %v, want a panic %v", c.b, r, !c.ok)
				}
			}()
			g.SetCapacity(0, c.b)
			if g.IntCapacity(0) != int(c.b) {
				t.Errorf("IntCapacity of %v = %d", c.b, g.IntCapacity(0))
			}
		}()

		_, err := Read(strings.NewReader(fmt.Sprintf("p 1 1\nc 0 %.0f\n", c.b)))
		if (err == nil) != c.ok {
			t.Errorf("Read of capacity %v: error %v, want an error %v", c.b, err, !c.ok)
		}

		g.caps[0] = c.b
		if err := g.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate of capacity %v: error %v, want an error %v", c.b, err, !c.ok)
		}
	}
}

// degree counts v's edges. The graph keeps no incidence index, so the
// tests count from Edges().
func degree(g *Bipartite, v NodeID) int { return len(incidentEdges(g, v)) }

// incidentEdges lists the indexes of v's edges, ascending.
func incidentEdges(g *Bipartite, v NodeID) []int32 {
	var out []int32
	for i, e := range g.Edges() {
		if e.Item == v || e.Consumer == v {
			out = append(out, int32(i))
		}
	}
	return out
}

func TestAdjacency(t *testing.T) {
	g := small(t)
	if degree(g, g.ConsumerID(0)) != 2 {
		t.Errorf("Degree(c0) = %d, want 2", degree(g, g.ConsumerID(0)))
	}
	inc := incidentEdges(g, g.ItemID(1))
	if len(inc) != 2 {
		t.Fatalf("item 1 incident = %v", inc)
	}
	for _, ei := range inc {
		e := g.Edge(int(ei))
		if e.Item != g.ItemID(1) {
			t.Errorf("incident edge %v does not touch item 1", e)
		}
	}
	// An added edge counts at once.
	g.AddEdge(g.ItemID(0), g.ConsumerID(1), 0.1)
	if degree(g, g.ItemID(0)) != 2 {
		t.Errorf("Degree after AddEdge = %d, want 2", degree(g, g.ItemID(0)))
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{Item: 1, Consumer: 4, Weight: 1}
	if e.Other(1) != 4 || e.Other(4) != 1 {
		t.Error("Other wrong")
	}
}

func TestWeightHelpers(t *testing.T) {
	g := small(t)
	if got := g.TotalWeight(); math.Abs(got-2.4) > 1e-12 {
		t.Errorf("TotalWeight = %v, want 2.4", got)
	}
	wmin, wmax := g.WeightRange()
	if wmin != 0.3 || wmax != 0.9 {
		t.Errorf("WeightRange = (%v, %v)", wmin, wmax)
	}
	empty := NewBipartite(1, 1)
	wmin, wmax = empty.WeightRange()
	if wmin != 0 || wmax != 0 {
		t.Errorf("empty WeightRange = (%v, %v)", wmin, wmax)
	}
}

func TestFilterEdges(t *testing.T) {
	g := small(t)
	f := g.FilterEdges(0.5)
	if f.NumEdges() != 3 {
		t.Errorf("FilterEdges(0.5) kept %d edges, want 3", f.NumEdges())
	}
	if f.Capacity(g.ItemID(1)) != g.Capacity(g.ItemID(1)) {
		t.Error("FilterEdges dropped capacities")
	}
	// Original untouched.
	if g.NumEdges() != 4 {
		t.Error("FilterEdges mutated receiver")
	}
	for _, e := range f.Edges() {
		if e.Weight < 0.5 {
			t.Errorf("edge below threshold survived: %v", e)
		}
	}
}

func TestSortEdgesByWeightDesc(t *testing.T) {
	g := small(t)
	order := g.SortEdgesByWeightDesc()
	prev := math.Inf(1)
	for _, ei := range order {
		w := g.Edge(int(ei)).Weight
		if w > prev {
			t.Errorf("order not descending: %v after %v", w, prev)
		}
		prev = w
	}
	if len(order) != g.NumEdges() {
		t.Errorf("order length %d != %d edges", len(order), g.NumEdges())
	}

	// Differential: the order must be exactly a stable sort of the edge
	// indexes by (weight descending, item, consumer), so duplicate edges
	// keep their index order.
	want := func(g *Bipartite) []int32 {
		idx := make([]int32, g.NumEdges())
		for i := range idx {
			idx[i] = int32(i)
		}
		slices.SortStableFunc(idx, func(a, b int32) int {
			ea, eb := g.Edge(int(a)), g.Edge(int(b))
			if c := cmp.Compare(eb.Weight, ea.Weight); c != 0 {
				return c
			}
			if c := cmp.Compare(ea.Item, eb.Item); c != 0 {
				return c
			}
			return cmp.Compare(ea.Consumer, eb.Consumer)
		})
		return idx
	}
	weights := map[string]func(*rand.Rand) float64{
		"continuous": func(r *rand.Rand) float64 { return r.ExpFloat64() + 1e-9 },
		"ties":       func(r *rand.Rand) float64 { return []float64{0.5, 1, 2}[r.Intn(3)] },
		"extremes": func(r *rand.Rand) float64 {
			return []float64{1e-300, 1e300, math.SmallestNonzeroFloat64, math.MaxFloat64, 1, 3e-300, 7e299}[r.Intn(7)]
		},
		"mixed": func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return 1
			}
			return math.Ldexp(r.Float64()+0.5, r.Intn(2000)-1000)
		},
	}
	check := func(name string, g *Bipartite) {
		t.Helper()
		if got := g.SortEdgesByWeightDesc(); !slices.Equal(got, want(g)) {
			t.Errorf("%s, %d edges: order differs from the stable reference sort", name, g.NumEdges())
		}
	}
	for name, weight := range weights {
		for seed, n := range []int{0, 1, 2, 17, 300, 5000, 100000} {
			r := rand.New(rand.NewSource(int64(seed)))
			g := NewBipartite(1+n/20, 1+n/50)
			addRandomEdges(g, r, n, weight)
			check(name, g)
		}
	}

	// One run of 10⁵ tied edges.
	r := rand.New(rand.NewSource(7))
	g = NewBipartite(3000, 500)
	addRandomEdges(g, r, 100000, func(*rand.Rand) float64 { return 1 })
	check("one tie run", g)

	// Item ids up to 2¹⁸ and consumer ids past it, so three bytes of
	// each endpoint vary among tied edges.
	g = NewBipartite(1<<18, 1<<17)
	addRandomEdges(g, r, 20000, func(r *rand.Rand) float64 { return float64(1 + r.Intn(3)) })
	check("wide ids", g)

	// Runs of 31, 32 and 33 tied edges, either side of a small-run
	// cutoff of 32, inserted interleaved. Each run's smallest and largest
	// (item, consumer) pairs go in twice, so duplicate edges sit at both
	// ends of the run, and every run repeats them at its own weight.
	g = NewBipartite(40, 40)
	var runs [][]Edge
	for _, n := range []int{31, 32, 33} {
		w := float64(n)
		run := []Edge{{g.ItemID(0), g.ConsumerID(0), w}, {g.ItemID(39), g.ConsumerID(39), w}}
		for len(run) < n-2 {
			run = append(run, Edge{g.ItemID(1 + r.Intn(38)), g.ConsumerID(r.Intn(40)), w})
		}
		run = append(run, run[0], run[1])
		r.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
		runs = append(runs, run)
	}
	for i := 0; i < 33; i++ {
		for _, run := range runs {
			if i < len(run) {
				g.AddEdge(run[i].Item, run[i].Consumer, run[i].Weight)
			}
		}
	}
	check("runs around the cutoff", g)
}

// addRandomEdges adds n edges between random endpoints of g, weighted by
// weight; a quarter of them go in two or three times in a row, so g has
// duplicate edges.
func addRandomEdges(g *Bipartite, r *rand.Rand, n int, weight func(*rand.Rand) float64) {
	n += g.NumEdges()
	for g.NumEdges() < n {
		e := Edge{g.ItemID(r.Intn(g.NumItems())), g.ConsumerID(r.Intn(g.NumConsumers())), weight(r)}
		copies := 1
		if r.Intn(4) == 0 {
			copies += 1 + r.Intn(2)
		}
		for ; copies > 0 && g.NumEdges() < n; copies-- {
			g.AddEdge(e.Item, e.Consumer, e.Weight)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := small(t)
	c := g.Clone()
	c.AddEdge(c.ItemID(0), c.ConsumerID(1), 0.2)
	c.SetCapacity(0, 9)
	if g.NumEdges() != 4 || g.Capacity(0) != 1 {
		t.Error("Clone shares state with original")
	}
}

func TestValidate(t *testing.T) {
	g := small(t)
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	// Corrupt an edge weight directly.
	bad := g.Clone()
	bad.edges[0].Weight = -1
	if bad.Validate() == nil {
		t.Error("negative weight not caught")
	}
	bad2 := g.Clone()
	bad2.edges[0].Item = 99
	if bad2.Validate() == nil {
		t.Error("bad endpoint not caught")
	}
	bad3 := g.Clone()
	bad3.caps[0] = math.NaN()
	if bad3.Validate() == nil {
		t.Error("NaN capacity not caught")
	}
}

func TestRandomBipartiteProperties(t *testing.T) {
	prop := func(seed int64, nItems, nCons uint8, probNum uint8) bool {
		cfg := RandomConfig{
			NumItems:     int(nItems)%12 + 1,
			NumConsumers: int(nCons)%12 + 1,
			EdgeProb:     float64(probNum%100) / 100,
			MaxWeight:    2,
			MaxCapacity:  3,
			Seed:         seed,
		}
		g := RandomBipartite(cfg)
		if g.Validate() != nil {
			return false
		}
		if g.NumItems() != cfg.NumItems || g.NumConsumers() != cfg.NumConsumers {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			b := g.Capacity(NodeID(v))
			if b < 1 || b > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomBipartiteDeterministic(t *testing.T) {
	cfg := RandomConfig{NumItems: 10, NumConsumers: 10, EdgeProb: 0.5,
		MaxWeight: 1, MaxCapacity: 4, Seed: 42}
	a := RandomBipartite(cfg)
	b := RandomBipartite(cfg)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different edge counts")
	}
	for i := range a.Edges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatal("same seed, different edges")
		}
	}
}

func TestPathGraph(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 10, 11} {
		g := PathGraph(k)
		if g.NumEdges() != k-1 {
			t.Errorf("PathGraph(%d) has %d edges, want %d", k, g.NumEdges(), k-1)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("PathGraph(%d): %v", k, err)
		}
		// Weights strictly increase along the path.
		for i := 0; i+1 < g.NumEdges(); i++ {
			if g.Edge(i).Weight >= g.Edge(i+1).Weight {
				t.Errorf("PathGraph(%d): weights not increasing", k)
			}
		}
		// Every node capacity is 1 and degree ≤ 2.
		for v := 0; v < g.NumNodes(); v++ {
			if g.Capacity(NodeID(v)) != 1 {
				t.Errorf("PathGraph(%d): capacity != 1", k)
			}
			if degree(g, NodeID(v)) > 2 {
				t.Errorf("PathGraph(%d): degree > 2", k)
			}
		}
	}
}

func TestGreedyTightCase(t *testing.T) {
	g := GreedyTightCase(0.1)
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	_, wmax := g.WeightRange()
	if math.Abs(wmax-1.1) > 1e-12 {
		t.Errorf("wmax = %v, want 1.1", wmax)
	}
}
