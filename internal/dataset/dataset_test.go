package dataset

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

func TestZipfBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 0.8, 50)
	if z.N() != 50 {
		t.Errorf("N = %d", z.N())
	}
	for i := 0; i < 10000; i++ {
		d := z.Draw()
		if d < 0 || d >= 50 {
			t.Fatalf("draw %d out of range", d)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Rank 0 must be drawn far more often than rank 40.
	rng := rand.New(rand.NewSource(2))
	z := NewZipf(rng, 1.0, 50)
	counts := make([]int, 50)
	for i := 0; i < 50000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] < 4*counts[40] {
		t.Errorf("zipf not skewed: c0=%d c40=%d", counts[0], counts[40])
	}
	// Counts roughly monotone at the head.
	if counts[0] < counts[1] || counts[1] < counts[5] {
		t.Errorf("zipf head not monotone: %v", counts[:6])
	}
}

// TestZipfDrawBucketEdge: u = 0.8333333333333333, one ulp below 5/6,
// has ⌊u·6⌋ = 5 in floating point, so its guide bucket is the one that
// starts at 5/6. With a CDF value at exactly u, the answer (rank 4) lies
// before that bucket's first rank, and only Draw's walk down finds it.
func TestZipfDrawBucketEdge(t *testing.T) {
	u := math.Nextafter(5.0/6, 0)
	if int(u*6) != 5 {
		t.Fatalf("⌊%v·6⌋ = %d, want the rounding this test is about", u, int(u*6))
	}
	cdf := []float64{0.1, 0.2, 0.3, 0.5, u, 1}
	z := &Zipf{cdf: cdf, guide: guideTable(cdf), rng: rand.New(&queueSource{q: []int64{int64(u * (1 << 63))}})}
	if got := z.Draw(); got != 4 {
		t.Errorf("Draw(%v) = %d, want 4", u, got)
	}
}

// TestZipfPanicsOnBadParams also holds ParetoInt to its shape check. A
// NaN shape fails every comparison, so each check must accept only
// positive numbers: NaN used to make Draw return n, one past the last
// rank, and ParetoInt convert +Inf or NaN to int, which Go leaves to the
// platform.
func TestZipfPanicsOnBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, fn := range map[string]func(){
		"n=0":              func() { NewZipf(rng, 1, 0) },
		"n past int32":     func() { NewZipf(rng, 1, math.MaxInt32+1) },
		"s=0":              func() { NewZipf(rng, 0, 5) },
		"s=-1":             func() { NewZipf(rng, -1, 5) },
		"s=NaN":            func() { NewZipf(rng, math.NaN(), 5) },
		"pareto alpha=0":   func() { ParetoInt(rng, 1, 100, 0) },
		"pareto alpha=-1":  func() { ParetoInt(rng, 1, 100, -1) },
		"pareto alpha=NaN": func() { ParetoInt(rng, 1, 100, math.NaN()) },
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

func TestParetoIntBoundsAndSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ones := 0
	for i := 0; i < 20000; i++ {
		x := ParetoInt(rng, 1, 100, 1.3)
		if x < 1 || x > 100 {
			t.Fatalf("pareto %d out of [1,100]", x)
		}
		if x == 1 {
			ones++
		}
	}
	// Power law: the minimum dominates.
	if ones < 8000 {
		t.Errorf("pareto not heavy at xmin: %d ones of 20000", ones)
	}
	if x := ParetoInt(rng, 5, 3, 1); x != 5 {
		t.Errorf("xmax < xmin: got %d, want clamp to 5", x)
	}
}

func TestCorpusNames(t *testing.T) {
	for _, name := range []string{"flickr-small", "flickr-large", "yahoo-answers"} {
		c, err := ByName(name, 0.03, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumItems() == 0 || c.NumConsumers() == 0 {
			t.Errorf("%s: empty corpus", name)
		}
	}
	if _, err := ByName("bogus", 1, 1); err == nil {
		t.Error("unknown corpus accepted")
	}
}

// TestCorpusScaling: ByName shrinks both parts by scale, floors each at
// 10, and refuses a scale outside (0,1] instead of running at full size.
func TestCorpusScaling(t *testing.T) {
	full := FlickrSmallConfig()
	for _, tc := range []struct {
		scale            float64
		items, consumers int
	}{
		{1, full.NumItems, full.NumConsumers},
		{0.05, int(float64(full.NumItems) * 0.05), int(float64(full.NumConsumers) * 0.05)},
		{0.00001, 10, 10},
	} {
		c, err := ByName("flickr-small", tc.scale, 1)
		if err != nil {
			t.Fatalf("scale %v: %v", tc.scale, err)
		}
		if c.NumItems() != tc.items || c.NumConsumers() != tc.consumers {
			t.Errorf("scale %v: |T|=%d |C|=%d, want %d %d",
				tc.scale, c.NumItems(), c.NumConsumers(), tc.items, tc.consumers)
		}
	}
	for _, scale := range []float64{0, -1, 7, math.NaN(), math.Inf(1)} {
		if _, err := ByName("flickr-small", scale, 1); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
}

func TestScaleCfg(t *testing.T) {
	items, consumers := 1000, 500
	scaleSizes(&items, &consumers, 0.1)
	if items != 100 || consumers != 50 {
		t.Errorf("scaled to %d %d", items, consumers)
	}
	items, consumers = 1000, 500
	scaleSizes(&items, &consumers, 1)
	if items != 1000 {
		t.Error("scale 1 must not change sizes")
	}
	items, consumers = 20, 20
	scaleSizes(&items, &consumers, 0.01)
	if items < 10 || consumers < 10 {
		t.Error("floor not applied")
	}
}

func TestFlickrCorpusShape(t *testing.T) {
	cfg := FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = 200, 80, 7
	c := Flickr("t", cfg)
	if c.NumItems() != 200 || c.NumConsumers() != 80 {
		t.Fatalf("sizes %d %d", c.NumItems(), c.NumConsumers())
	}
	if len(c.Activity) != 80 || len(c.Favorites) != 200 {
		t.Fatal("metadata length wrong")
	}
	for _, v := range c.Items {
		if v.IsZero() {
			t.Fatal("empty item vector")
		}
	}
	for j, a := range c.Activity {
		if a < 1 {
			t.Fatalf("activity[%d] = %v < 1", j, a)
		}
	}
	for _, f := range c.Favorites {
		if f < 0 {
			t.Fatal("negative favorites")
		}
	}
}

func TestFlickrDeterministic(t *testing.T) {
	cfg := FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers = 100, 40
	a := Flickr("a", cfg)
	b := Flickr("b", cfg)
	ga, gb := a.BuildGraph(1), b.BuildGraph(1)
	if ga.NumEdges() != gb.NumEdges() {
		t.Error("same config produced different graphs")
	}
}

func TestBuildGraphThresholdMonotone(t *testing.T) {
	cfg := FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = 150, 60, 11
	c := Flickr("t", cfg)
	prev := -1
	for _, sigma := range []float64{1, 2, 4, 8} {
		n := c.BuildGraph(sigma).NumEdges()
		if prev >= 0 && n > prev {
			t.Errorf("edges increased when sigma rose: %d -> %d", prev, n)
		}
		prev = n
	}
}

func TestBuildGraphMatchesDotProducts(t *testing.T) {
	cfg := FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = 60, 30, 13
	c := Flickr("t", cfg)
	const sigma = 2
	g := c.BuildGraph(sigma)
	// Every edge weight equals the dot product; every qualifying pair
	// appears.
	found := make(map[[2]int]float64)
	for _, e := range g.Edges() {
		found[[2]int{int(e.Item), int(e.Consumer) - g.NumItems()}] = e.Weight
	}
	for i, iv := range c.Items {
		for j, cv := range c.Consumers {
			dot := iv.Dot(cv)
			w, ok := found[[2]int{i, j}]
			if dot >= sigma {
				if !ok {
					t.Fatalf("pair (%d,%d) dot %v missing", i, j, dot)
				}
				if math.Abs(w-dot) > 1e-9 {
					t.Fatalf("pair (%d,%d) weight %v != dot %v", i, j, w, dot)
				}
			} else if ok {
				t.Fatalf("pair (%d,%d) dot %v below sigma included", i, j, dot)
			}
		}
	}
}

func TestApplyCapacities(t *testing.T) {
	cfg := FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = 80, 40, 17
	c := Flickr("t", cfg)
	g := c.BuildGraph(1)
	if err := c.ApplyCapacities(g, 2); err != nil {
		t.Fatal(err)
	}
	// Consumer capacities = max(1, 2*n(u)).
	for j := 0; j < g.NumConsumers(); j++ {
		want := 2 * c.Activity[j]
		if want < 1 {
			want = 1
		}
		if got := g.Capacity(g.ConsumerID(j)); got != want {
			t.Fatalf("b(c%d) = %v, want %v", j, got, want)
		}
	}
	// Item capacities positive.
	for i := 0; i < g.NumItems(); i++ {
		if g.Capacity(g.ItemID(i)) < 1 {
			t.Fatalf("b(t%d) = %v < 1", i, g.Capacity(g.ItemID(i)))
		}
	}
	// Size mismatch rejected.
	if err := c.ApplyCapacities(graph.NewBipartite(1, 1), 1); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestAnswersCorpusShape(t *testing.T) {
	cfg := AnswersScaledConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = 300, 100, 23
	c := Answers("t", cfg)
	if c.Favorites != nil {
		t.Error("answers corpus must use constant item capacities")
	}
	// tf·idf + normalization: all similarities are cosines in [0, 1].
	g := c.BuildGraph(0)
	_, wmax := g.WeightRange()
	if wmax > 1+1e-9 {
		t.Errorf("cosine similarity %v > 1", wmax)
	}
	if g.NumEdges() == 0 {
		t.Error("no edges generated")
	}
	// Topic structure: the graph must be sparser than flickr's.
	density := float64(g.NumEdges()) / float64(c.NumItems()*c.NumConsumers())
	if density > 0.6 {
		t.Errorf("answers density %v suspiciously high", density)
	}
}

func TestAnswersCapacitiesConstantPerItem(t *testing.T) {
	cfg := AnswersScaledConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = 120, 60, 29
	c := Answers("t", cfg)
	g := c.BuildGraph(0.01)
	if err := c.ApplyCapacities(g, 1); err != nil {
		t.Fatal(err)
	}
	first := g.Capacity(g.ItemID(0))
	for i := 1; i < g.NumItems(); i++ {
		if g.Capacity(g.ItemID(i)) != first {
			t.Fatal("question capacities not constant")
		}
	}
}

func TestTableStats(t *testing.T) {
	cfg := FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = 50, 20, 31
	c := Flickr("stats-test", cfg)
	s := c.TableStats(1)
	if s.Name != "stats-test" || s.NumItems != 50 || s.NumConsumers != 20 {
		t.Errorf("stats %+v", s)
	}
	if s.NumEdges != c.BuildGraph(1).NumEdges() {
		t.Error("edge count mismatch")
	}
}

func TestSyntheticGraph(t *testing.T) {
	g := Synthetic(SyntheticConfig{
		NumItems: 500, NumConsumers: 100, MeanDegree: 5,
		DegreeAlpha: 1.5, WeightScale: 1, CapacityAlpha: 1.2,
		CapacityMax: 50, Seed: 37,
	})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 500 {
		t.Errorf("too few edges: %d", g.NumEdges())
	}
	// Every node has a positive capacity.
	for v := 0; v < g.NumNodes(); v++ {
		if g.Capacity(graph.NodeID(v)) < 1 {
			t.Fatalf("capacity of %d below 1", v)
		}
	}
	// Degrees heavy-tailed: max degree well above the mean.
	var degs []float64
	for i := 0; i < g.NumItems(); i++ {
		degs = append(degs, float64(degree(g, g.ItemID(i))))
	}
	s := stats.Summarize(degs)
	if s.Max < 3*s.Mean {
		t.Errorf("degree distribution not heavy-tailed: max=%v mean=%v", s.Max, s.Mean)
	}
}

func TestSyntheticNoConsumers(t *testing.T) {
	g := Synthetic(SyntheticConfig{NumItems: 5, MeanDegree: 3, DegreeAlpha: 1.4,
		WeightScale: 1, CapacityAlpha: 1.2, CapacityMax: 10, Seed: 1})
	if g.NumItems() != 5 || g.NumConsumers() != 0 || g.NumEdges() != 0 {
		t.Fatalf("got %d items, %d consumers, %d edges; want 5, 0, 0",
			g.NumItems(), g.NumConsumers(), g.NumEdges())
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	cfg := SyntheticConfig{NumItems: 100, NumConsumers: 50, MeanDegree: 4,
		DegreeAlpha: 1.5, WeightScale: 1, CapacityAlpha: 1.3, CapacityMax: 20, Seed: 5}
	a, b := Synthetic(cfg), Synthetic(cfg)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("nondeterministic synthetic graph")
	}
	for i := range a.Edges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatal("edge mismatch")
		}
	}
}

// degree counts v's edges. The graph keeps no incidence index, so the
// tests count from Edges().
func degree(g *graph.Bipartite, v graph.NodeID) int {
	n := 0
	for _, e := range g.Edges() {
		if e.Item == v || e.Consumer == v {
			n++
		}
	}
	return n
}
