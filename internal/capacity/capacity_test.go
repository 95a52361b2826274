package capacity

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func newG(t *testing.T, items, consumers int) *graph.Bipartite {
	t.Helper()
	return graph.NewBipartite(items, consumers)
}

func TestConsumerActivity(t *testing.T) {
	g := newG(t, 2, 3)
	total, err := ConsumerActivity(g, []float64{10, 0, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// b = max(1, alpha*n): 20, 1, 8 -> total 29.
	if total != 29 {
		t.Errorf("total = %v, want 29", total)
	}
	if g.Capacity(g.ConsumerID(0)) != 20 || g.Capacity(g.ConsumerID(1)) != 1 || g.Capacity(g.ConsumerID(2)) != 8 {
		t.Error("capacities wrong")
	}
}

func TestConsumerActivityErrors(t *testing.T) {
	g := newG(t, 1, 2)
	if _, err := ConsumerActivity(g, []float64{1}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ConsumerActivity(g, []float64{1, 2}, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := ConsumerActivity(g, []float64{1, -2}, 1); err == nil {
		t.Error("negative activity accepted")
	}
	// A capacity the graph cannot hold is an error, not a panic.
	for _, n := range []float64{1e19, math.NaN(), math.Inf(1)} {
		if _, err := ConsumerActivity(g, []float64{1, n}, 1); err == nil {
			t.Errorf("activity %v accepted", n)
		}
	}
	if err := UniformItems(g, 1e19); err == nil {
		t.Error("item capacity 1e19 accepted")
	}
	if err := QualityProportional(g, []float64{1}, math.NaN()); err == nil {
		t.Error("NaN bandwidth accepted")
	}
}

func TestUniformItems(t *testing.T) {
	g := newG(t, 4, 1)
	if err := UniformItems(g, 20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if g.Capacity(g.ItemID(i)) != 5 {
			t.Errorf("item %d capacity %v, want 5", i, g.Capacity(g.ItemID(i)))
		}
	}
	// Floor at 1 when bandwidth is tiny.
	if err := UniformItems(g, 0.5); err != nil {
		t.Fatal(err)
	}
	if g.Capacity(g.ItemID(0)) != 1 {
		t.Error("floor at 1 not applied")
	}
	if err := UniformItems(g, -1); err == nil {
		t.Error("negative bandwidth accepted")
	}
	empty := newG(t, 0, 1)
	if err := UniformItems(empty, 10); err != nil {
		t.Errorf("empty item side: %v", err)
	}
}

func TestQualityProportional(t *testing.T) {
	g := newG(t, 3, 1)
	// Unnormalized scores normalize internally: 2:1:1.
	if err := QualityProportional(g, []float64{2, 1, 1}, 40); err != nil {
		t.Fatal(err)
	}
	if g.Capacity(g.ItemID(0)) != 20 || g.Capacity(g.ItemID(1)) != 10 {
		t.Errorf("capacities %v %v, want 20 10",
			g.Capacity(g.ItemID(0)), g.Capacity(g.ItemID(1)))
	}
	// max{1, ...} floor.
	if err := QualityProportional(g, []float64{1, 0, 0}, 2); err != nil {
		t.Fatal(err)
	}
	if g.Capacity(g.ItemID(1)) != 1 {
		t.Error("zero-quality item must keep capacity 1")
	}
	if err := QualityProportional(g, []float64{1}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := QualityProportional(g, []float64{1, -1, 0}, 1); err == nil {
		t.Error("negative quality accepted")
	}
	// All-zero quality degrades to uniform.
	if err := QualityProportional(g, []float64{0, 0, 0}, 30); err != nil {
		t.Fatal(err)
	}
	if g.Capacity(g.ItemID(2)) != 10 {
		t.Error("all-zero quality should fall back to uniform")
	}
}

func TestFavoritesProportionalMatchesPaperFormula(t *testing.T) {
	// b(p) = f(p) * (sum alpha*n(u)) / (sum f(q)).
	g := newG(t, 2, 2)
	bandwidth, err := ConsumerActivity(g, []float64{3, 5}, 2) // B = 16
	if err != nil {
		t.Fatal(err)
	}
	if err := FavoritesProportional(g, []float64{1, 3}, bandwidth); err != nil {
		t.Fatal(err)
	}
	if got := g.Capacity(g.ItemID(0)); math.Abs(got-4) > 1e-12 {
		t.Errorf("b(p0) = %v, want 16*1/4 = 4", got)
	}
	if got := g.Capacity(g.ItemID(1)); math.Abs(got-12) > 1e-12 {
		t.Errorf("b(p1) = %v, want 12", got)
	}
}

func TestConstantPerItem(t *testing.T) {
	g := newG(t, 5, 1)
	if err := ConstantPerItem(g, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if g.Capacity(g.ItemID(i)) != 5 {
			t.Error("constant capacity wrong")
		}
	}
}

func TestBandwidthConservation(t *testing.T) {
	// The paper requires sum b(t) ≈ B = sum b(c); with favorites
	// proportional and no flooring, totals agree exactly.
	g := newG(t, 3, 4)
	bandwidth, err := ConsumerActivity(g, []float64{2, 3, 4, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := FavoritesProportional(g, []float64{5, 10, 15}, bandwidth); err != nil {
		t.Fatal(err)
	}
	itemTotal := g.TotalCapacity(graph.ItemSide)
	if math.Abs(itemTotal-bandwidth) > 1e-9 {
		t.Errorf("item total %v != bandwidth %v", itemTotal, bandwidth)
	}
}

func TestSummarize(t *testing.T) {
	g := newG(t, 2, 3)
	g.SetCapacity(g.ItemID(0), 2)
	g.SetCapacity(g.ItemID(1), 6)
	g.SetCapacity(g.ConsumerID(0), 1)
	g.SetCapacity(g.ConsumerID(1), 3)
	g.SetCapacity(g.ConsumerID(2), 5)
	s := Summarize(g, graph.ItemSide)
	if s.Count != 2 || s.Min != 2 || s.Max != 6 || s.Mean != 4 || s.Total != 8 {
		t.Errorf("item summary %+v", s)
	}
	s = Summarize(g, graph.ConsumerSide)
	if s.Count != 3 || s.Min != 1 || s.Max != 5 || s.Total != 9 {
		t.Errorf("consumer summary %+v", s)
	}
	empty := Summarize(newG(t, 0, 0), graph.ItemSide)
	if empty.Count != 0 || empty.Mean != 0 {
		t.Error("empty summary not neutral")
	}
}
