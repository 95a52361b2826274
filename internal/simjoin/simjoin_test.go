package simjoin

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/vector"
)

var testMR = Options{MR: mapreduce.Config{Mappers: 2, Reducers: 2}}

func vec(pairs ...float64) vector.Sparse {
	entries := make([]vector.Entry, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		entries = append(entries, vector.Entry{Term: vector.TermID(pairs[i]), Weight: pairs[i+1]})
	}
	return vector.FromEntries(entries)
}

func sameEdges(t *testing.T, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("edge count %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Item != want[i].Item || got[i].Consumer != want[i].Consumer {
			t.Fatalf("edge %d endpoints %v, want %v", i, got[i], want[i])
		}
		if math.Abs(got[i].Sim-want[i].Sim) > 1e-12 {
			t.Fatalf("edge %d sim %v, want %v", i, got[i].Sim, want[i].Sim)
		}
	}
}

func TestJoinTinyExample(t *testing.T) {
	items := []vector.Sparse{
		vec(1, 1, 2, 1), // matches c0 on terms 1,2
		vec(3, 2),       // matches c1 on term 3
		vec(9, 1),       // matches nothing
	}
	consumers := []vector.Sparse{
		vec(1, 1, 2, 2),
		vec(3, 3, 4, 1),
	}
	res, err := Join(context.Background(), items, consumers, 2.5, testMR)
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{
		{Item: 0, Consumer: 0, Sim: 3}, // 1*1 + 1*2
		{Item: 1, Consumer: 1, Sim: 6}, // 2*3
	}
	sameEdges(t, res.Edges, want)
	if res.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", res.Rounds)
	}
}

func TestJoinMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randVec := func(maxTerms int) vector.Sparse {
		n := 1 + rng.Intn(maxTerms)
		entries := make([]vector.Entry, 0, n)
		for k := 0; k < n; k++ {
			entries = append(entries, vector.Entry{
				Term:   vector.TermID(rng.Intn(40)),
				Weight: 0.1 + rng.Float64(),
			})
		}
		return vector.FromEntries(entries)
	}
	items := make([]vector.Sparse, 60)
	consumers := make([]vector.Sparse, 40)
	for i := range items {
		items[i] = randVec(8)
	}
	for j := range consumers {
		consumers[j] = randVec(12)
	}
	for _, sigma := range []float64{0.2, 0.5, 1, 2, 4} {
		res, err := Join(context.Background(), items, consumers, sigma, testMR)
		if err != nil {
			t.Fatalf("sigma=%v: %v", sigma, err)
		}
		sameEdges(t, res.Edges, BruteForce(items, consumers, sigma))
	}
}

func TestJoinPrunesCandidates(t *testing.T) {
	// With a high threshold, prefix filtering must generate strictly
	// fewer candidates than the co-occurrence join would.
	rng := rand.New(rand.NewSource(11))
	items := make([]vector.Sparse, 120)
	consumers := make([]vector.Sparse, 80)
	for i := range items {
		b := vector.NewBuilder()
		for k := 0; k < 6; k++ {
			b.Add(vector.TermID(rng.Intn(30)), 0.1+rng.Float64())
		}
		items[i] = b.Vector()
	}
	for j := range consumers {
		b := vector.NewBuilder()
		for k := 0; k < 10; k++ {
			b.Add(vector.TermID(rng.Intn(30)), 0.1+rng.Float64())
		}
		consumers[j] = b.Vector()
	}
	// Co-occurrence candidate count = pairs sharing >= 1 term.
	cooccur := int64(len(BruteForce(items, consumers, 1e-12)))
	res, err := Join(context.Background(), items, consumers, 3.0, testMR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates >= cooccur {
		t.Errorf("candidates %d not pruned below co-occurring pairs %d", res.Candidates, cooccur)
	}
	if res.PostingEntries <= 0 {
		t.Error("empty index despite matches")
	}
	// The unpruned index would hold every term of every item.
	var full int64
	for _, d := range items {
		full += int64(d.Len())
	}
	if res.PostingEntries >= full {
		t.Errorf("prefix index not smaller than the full index: %d >= %d", res.PostingEntries, full)
	}
	sameEdges(t, res.Edges, BruteForce(items, consumers, 3.0))
}

// TestJoinRejectsNonPositiveThreshold: the join refuses a threshold that
// is not a finite positive number. NaN fails a σ ≤ 0 comparison too, and
// unrefused it keeps no posting: the join returns no edges and no error.
func TestJoinRejectsNonPositiveThreshold(t *testing.T) {
	items, consumers := []vector.Sparse{vec(1, 2)}, []vector.Sparse{vec(1, 3)}
	for _, sigma := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Join(context.Background(), items, consumers, sigma, testMR); err == nil {
			t.Errorf("Join accepted sigma=%v", sigma)
		}
	}
}

func TestJoinEmptyCollections(t *testing.T) {
	res, err := Join(context.Background(), nil, []vector.Sparse{vec(1, 1)}, 1, testMR)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 0 {
		t.Error("edges from empty item side")
	}
	res, err = Join(context.Background(), []vector.Sparse{vec(1, 1)}, nil, 1, testMR)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 0 {
		t.Error("edges from empty consumer side")
	}
}

func TestJoinZeroVectorsNeverMatch(t *testing.T) {
	items := []vector.Sparse{{}, vec(1, 5)}
	consumers := []vector.Sparse{vec(1, 5), {}}
	res, err := Join(context.Background(), items, consumers, 1, testMR)
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{Item: 1, Consumer: 0, Sim: 25}}
	sameEdges(t, res.Edges, want)
}

func TestJoinThresholdBoundaryInclusive(t *testing.T) {
	items := []vector.Sparse{vec(1, 2)}
	consumers := []vector.Sparse{vec(1, 3)}
	res, err := Join(context.Background(), items, consumers, 6, testMR)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 1 {
		t.Error("pair exactly at threshold excluded")
	}
	res, err = Join(context.Background(), items, consumers, 6.0001, testMR)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 0 {
		t.Error("pair below threshold included")
	}
}

func TestPrefixEntriesSoundBound(t *testing.T) {
	// Every pair found by brute force must share at least one indexed
	// (prefix) term — the correctness invariant of prefix filtering.
	rng := rand.New(rand.NewSource(3))
	items := make([]vector.Sparse, 50)
	consumers := make([]vector.Sparse, 50)
	for i := range items {
		b := vector.NewBuilder()
		for k := 0; k < 5; k++ {
			b.Add(vector.TermID(rng.Intn(25)), 0.2+rng.Float64())
		}
		items[i] = b.Vector()
	}
	for j := range consumers {
		b := vector.NewBuilder()
		for k := 0; k < 7; k++ {
			b.Add(vector.TermID(rng.Intn(25)), 0.2+rng.Float64())
		}
		consumers[j] = b.Vector()
	}
	const sigma = 1.5
	maxW := vector.MaxWeights(consumers)
	df := vector.DocumentFrequencies(consumers)
	for _, e := range BruteForce(items, consumers, sigma) {
		prefix := prefixEntries(items[e.Item], sigma, maxW, df)
		shared := false
		for _, pe := range prefix {
			if consumers[e.Consumer].Weight(pe.Term) > 0 {
				shared = true
				break
			}
		}
		if !shared {
			t.Fatalf("pair (%d,%d) sim=%v shares no prefix term: bound unsound",
				e.Item, e.Consumer, e.Sim)
		}
	}
}

func TestToGraph(t *testing.T) {
	edges := []Edge{{Item: 0, Consumer: 1, Sim: 0.5}, {Item: 2, Consumer: 0, Sim: 1.5}}
	g := ToGraph(edges, 3, 2)
	if g.NumEdges() != 2 || g.NumItems() != 3 || g.NumConsumers() != 2 {
		t.Errorf("graph shape wrong: %d edges", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestJoinOnGeneratedCorpusMatchesCorpusGraph(t *testing.T) {
	// The dataset package scores pairs with an exact inverted index;
	// the MapReduce join must find the same edges.
	cfg := dataset.FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = 150, 60, 42
	c := dataset.Flickr("mini", cfg)
	const sigma = 3
	res, err := Join(context.Background(), c.Items, c.Consumers, sigma, testMR)
	if err != nil {
		t.Fatal(err)
	}
	g := c.BuildGraph(sigma)
	if g.NumEdges() != len(res.Edges) {
		t.Fatalf("simjoin %d edges, corpus graph %d", len(res.Edges), g.NumEdges())
	}
	want := make(map[[2]int32]float64, g.NumEdges())
	for _, ge := range g.Edges() {
		want[[2]int32{int32(ge.Item), int32(int(ge.Consumer) - g.NumItems())}] = ge.Weight
	}
	for _, e := range res.Edges {
		w, ok := want[[2]int32{e.Item, e.Consumer}]
		if !ok {
			t.Fatalf("simjoin edge (%d,%d) missing from corpus graph", e.Item, e.Consumer)
		}
		if math.Abs(w-e.Sim) > 1e-9 {
			t.Fatalf("edge (%d,%d) weight %v vs %v", e.Item, e.Consumer, e.Sim, w)
		}
	}
}

// TestJoinIdenticalAcrossShuffleBackends runs the similarity join on a
// random corpus over both shuffle backends and requires identical edge
// sets: the partitioned, sort-grouped data path and the external-memory
// spill path must reproduce each other's candidate generation and
// verification exactly.
func TestJoinIdenticalAcrossShuffleBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randVec := func() vector.Sparse {
		entries := make([]vector.Entry, 0, 8)
		for term := 0; term < 40; term++ {
			if rng.Float64() < 0.15 {
				entries = append(entries, vector.Entry{
					Term:   vector.TermID(term),
					Weight: 0.25 + rng.Float64(),
				})
			}
		}
		return vector.FromEntries(entries)
	}
	items := make([]vector.Sparse, 50)
	consumers := make([]vector.Sparse, 40)
	for i := range items {
		items[i] = randVec()
	}
	for i := range consumers {
		consumers[i] = randVec()
	}
	ctx := context.Background()
	mem, err := Join(ctx, items, consumers, 1.0, Options{
		MR: mapreduce.Config{Mappers: 3, Reducers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	spill, err := Join(ctx, items, consumers, 1.0, Options{
		MR: mapreduce.Config{
			Mappers: 3, Reducers: 3,
			Shuffle: mapreduce.ShuffleConfig{
				Backend:      mapreduce.ShuffleSpill,
				MemoryBudget: 64,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Edges) == 0 {
		t.Fatal("fixture produced no join edges; raise density")
	}
	sameEdges(t, spill.Edges, mem.Edges)
	if spill.Candidates != mem.Candidates || spill.PostingEntries != mem.PostingEntries {
		t.Fatalf("candidates/postings differ: spill %d/%d vs memory %d/%d",
			spill.Candidates, spill.PostingEntries, mem.Candidates, mem.PostingEntries)
	}
	if spill.Shuffle.SpilledRecords == 0 {
		t.Fatal("spill backend never spilled on the join fixture")
	}
}
