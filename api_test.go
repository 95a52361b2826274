package socialmatch

import (
	"context"
	"math"
	"testing"
)

func buildToyGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(2, 2)
	g.SetCapacity(0, 1)
	g.SetCapacity(1, 1)
	g.SetCapacity(2, 1)
	g.SetCapacity(3, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 3)
	return g
}

func TestMatchAllAlgorithms(t *testing.T) {
	ctx := context.Background()
	for _, alg := range Algorithms() {
		g := buildToyGraph(t)
		res, err := Match(ctx, g, Options{Algorithm: alg, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Matching.Size() == 0 {
			t.Errorf("%s: empty matching", alg)
		}
		// OPT takes edges of weight 2 and 3 (value 5). The greedy
		// algorithms guarantee 1/2 of that and actually find all of it;
		// the stack algorithms only guarantee 1/(6+ε).
		minValue := 5.0
		switch alg {
		case StackMRAlgorithm, StackGreedyMRAlgorithm, StackMRStrictAlgorithm,
			StackSequentialAlgorithm:
			minValue = 5.0 / 7
		}
		if res.Matching.Value() < minValue {
			t.Errorf("%s: value %v below guarantee %v", alg, res.Matching.Value(), minValue)
		}
	}
}

func TestMatchDefaultsToGreedyMR(t *testing.T) {
	g := buildToyGraph(t)
	res, err := Match(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Value() != 5 {
		t.Errorf("default match value %v, want 5", res.Matching.Value())
	}
}

func TestMatchUnknownAlgorithm(t *testing.T) {
	g := buildToyGraph(t)
	if _, err := Match(context.Background(), g, Options{Algorithm: "bogus"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	// Two items, three consumers, clear topical structure.
	items := []Vector{
		NewVector([]VectorEntry{{Term: 1, Weight: 1}, {Term: 2, Weight: 1}}), // topic A
		NewVector([]VectorEntry{{Term: 7, Weight: 2}}),                       // topic B
	}
	consumers := []Vector{
		NewVector([]VectorEntry{{Term: 1, Weight: 2}}),                       // likes A
		NewVector([]VectorEntry{{Term: 7, Weight: 1}}),                       // likes B
		NewVector([]VectorEntry{{Term: 2, Weight: 1}, {Term: 7, Weight: 1}}), // both
	}
	rep, err := Pipeline{
		Sigma: 1,
		Alpha: 1,
		Match: Options{Algorithm: GreedyMRAlgorithm},
	}.Run(context.Background(), items, consumers, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.JoinRounds != 2 {
		t.Errorf("JoinRounds = %d, want 2", rep.JoinRounds)
	}
	if rep.CandidateEdges == 0 || len(rep.Assignments) == 0 {
		t.Fatalf("empty pipeline result: %+v", rep)
	}
	if rep.Violation != 0 {
		t.Errorf("GreedyMR must be feasible, violation %v", rep.Violation)
	}
	for _, a := range rep.Assignments {
		if a.Item < 0 || a.Item >= len(items) || a.Consumer < 0 || a.Consumer >= len(consumers) {
			t.Errorf("assignment out of range: %+v", a)
		}
		if a.Similarity < 1 {
			t.Errorf("assignment below sigma: %+v", a)
		}
	}
}

func TestPipelineQualityProportional(t *testing.T) {
	items := []Vector{
		NewVector([]VectorEntry{{Term: 1, Weight: 1}}),
		NewVector([]VectorEntry{{Term: 1, Weight: 1}}),
	}
	consumers := []Vector{
		NewVector([]VectorEntry{{Term: 1, Weight: 5}}),
	}
	rep, err := Pipeline{
		Sigma:   1,
		Quality: []float64{1, 0}, // all bandwidth to item 0
		Match:   Options{Algorithm: GreedyAlgorithm},
	}.Run(context.Background(), items, consumers, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Assignments) == 0 {
		t.Fatal("no assignments")
	}
}

func TestPipelineRejectsBadSigma(t *testing.T) {
	items := []Vector{NewVector([]VectorEntry{{Term: 1, Weight: 2}})}
	consumers := []Vector{NewVector([]VectorEntry{{Term: 1, Weight: 3}})}
	for _, sigma := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := (Pipeline{Sigma: sigma}).Run(context.Background(), items, consumers, []float64{1}); err == nil {
			t.Errorf("sigma=%v accepted", sigma)
		}
	}
}
