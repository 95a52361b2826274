package simjoin

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/vector"
)

// TestJoinGoldenUnderInjectedFailures reruns the golden join with three
// task attempts in ten failing, twice on every backend. The stamp and
// weight tables are pooled, so they outlive the attempt and the job: the
// second run borrows what the first (and every earlier test) returned,
// and anything left stamped — or a table that told calls apart by
// consumer id — would lose or double candidates here.
func TestJoinGoldenUnderInjectedFailures(t *testing.T) {
	goldenBackends(t, func(t *testing.T, items, consumers []vector.Sparse, mr mapreduce.Config) {
		mr.FailureRate, mr.FailureSeed, mr.MaxAttempts = 0.3, 5, 16
		for run := 0; run < 2; run++ { // the second run borrows the first's tables
			res, err := Join(context.Background(), items, consumers, goldenSigma, Options{MR: mr})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, res)
			if res.Shuffle.MapTaskRetries+res.Shuffle.ReduceTaskRetries == 0 {
				t.Fatal("no task was retried: the failure injection is off")
			}
		}
	})
}

// TestJoinAwkwardInput: a hashed term id near 2³⁰, an item term no
// consumer has, empty vectors on both sides and a consumer with exactly
// one candidate. The verification tables are as long as the consumers
// have distinct terms — not as the largest id — and the result is
// BruteForce's, similarities bit for bit.
func TestJoinAwkwardInput(t *testing.T) {
	const huge = 1 << 30
	items := []vector.Sparse{
		vec(1, 0.5, 7, 0.25, huge, 2), // term 7 is in no consumer
		{},
		vec(2, 1.5, 3, 0.125),
		vec(7, 9), // only a term no consumer has
		vec(1, 0.1, 2, 0.3, 3, 0.7, huge, 0.9),
	}
	consumers := []vector.Sparse{
		vec(1, 0.3, 2, 0.7, huge, 1.1),
		{},
		vec(3, 8), // one candidate that survives (item 4), one that does not (item 2)
		vec(5, 4), // a term no item has: no candidate
		vec(huge, 0.6),
	}
	const sigma = 1
	v := newVerifier(items, consumers, sigma)
	if got := len(v.rankOf); got != 5 { // 1, 2, 3, 5, 1<<30
		t.Fatalf("vocabulary of %d terms, want the 5 distinct consumer terms", got)
	}
	for r, want := range []vector.TermID{1, 2, 3, 5, huge} {
		if got := v.rankOf[want]; got != int32(r) {
			t.Fatalf("term %d has rank %d, want %d (ranks ascend with the term id)", want, got, r)
		}
	}
	if got := len(v.items[0]); got != 2 {
		t.Fatalf("item 0 keeps %d entries, want 2 (term 7 dropped)", got)
	}
	if len(v.items[3]) != 0 || len(v.items[1]) != 0 || len(v.consumers[1]) != 0 {
		t.Fatal("an empty or all-foreign vector kept entries")
	}

	// Earlier tests left longer tables in the pool: start from none.
	weightPool = sync.Pool{New: func() any { return new([]float64) }}
	want := BruteForce(items, consumers, sigma)
	if len(want) == 0 {
		t.Fatal("fixture joins nothing")
	}
	for _, mr := range []mapreduce.Config{
		{Mappers: 2, Reducers: 2},
		{Mappers: 2, Reducers: 3, Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleSpill, MemoryBudget: 2}},
	} {
		res, err := Join(context.Background(), items, consumers, sigma, Options{MR: mr})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Edges) != len(want) {
			t.Fatalf("%d edges, want %d\ngot:  %v\nwant: %v", len(res.Edges), len(want), res.Edges, want)
		}
		for i, e := range res.Edges {
			if e.Item != want[i].Item || e.Consumer != want[i].Consumer || math.Float64bits(e.Sim) != math.Float64bits(want[i].Sim) {
				t.Fatalf("edge %d = %v, want %v (bit for bit)", i, e, want[i])
			}
		}
	}
	// Every weight table those joins grew is the vocabulary's length,
	// however large the ids.
	for i := 0; i < 8; i++ {
		table := weightPool.Get().(*[]float64)
		if len(*table) > 5 {
			t.Fatalf("weight table of %d entries for 5 consumer terms: sized by term id, not by rank", len(*table))
		}
	}
}

// TestSortEdgesScatter: the two-pass scatter agrees with the order it
// replaces on shuffled input, and leaves sorted input alone.
func TestSortEdgesScatter(t *testing.T) {
	var edges []Edge
	for c := int32(6); c >= 0; c-- {
		for i := int32(0); i < 9; i++ {
			if (i*7+c*3)%4 != 0 {
				edges = append(edges, Edge{Item: (i * 5) % 9, Consumer: c, Sim: float64(i*10 + c)})
			}
		}
	}
	sortEdges(edges)
	for k := 1; k < len(edges); k++ {
		a, b := edges[k-1], edges[k]
		if a.Item > b.Item || (a.Item == b.Item && a.Consumer >= b.Consumer) {
			t.Fatalf("edges %d, %d out of order: %v, %v", k-1, k, a, b)
		}
	}
	for _, e := range edges {
		// Sim encodes the pre-permutation item index: recover and compare.
		if i := (int32(e.Sim) - e.Consumer) / 10; (i*5)%9 != e.Item {
			t.Fatalf("edge %v lost its payload", e)
		}
	}
	sortEdges(nil)
}
