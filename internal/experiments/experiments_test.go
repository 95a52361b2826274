package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
)

func quickCfg() Config {
	c := Quick()
	c.Scale = 0.05
	return c
}

func TestTable1(t *testing.T) {
	rows := Table1(quickCfg())
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Dataset] = true
		if r.NumItems <= 0 || r.NumConsumers <= 0 || r.NumEdges <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	for _, want := range []string{"flickr-small", "flickr-large", "yahoo-answers"} {
		if !names[want] {
			t.Errorf("missing dataset %s", want)
		}
	}
	if out := RenderTable1(rows); !strings.Contains(out, "flickr-small") {
		t.Error("render missing dataset name")
	}
}

func TestQualityExperimentShape(t *testing.T) {
	ctx := context.Background()
	res, err := Quality(ctx, quickCfg(), "flickr-small")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(SigmaGrid("flickr-small")) {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	prevEdges := -1
	for _, row := range res.Rows {
		// Lowering sigma adds edges.
		if prevEdges >= 0 && row.Edges < prevEdges {
			t.Errorf("edges decreased along sweep: %d -> %d", prevEdges, row.Edges)
		}
		prevEdges = row.Edges
		if row.GreedyMR <= 0 || row.StackMR <= 0 || row.StackGreedy <= 0 {
			t.Errorf("zero matching value in row %+v", row)
		}
		// The paper's headline: GreedyMR consistently beats the stack
		// algorithms on value.
		if row.GreedyMR < row.StackMR {
			t.Errorf("sigma=%v: GreedyMR %v below StackMR %v", row.Sigma, row.GreedyMR, row.StackMR)
		}
	}
	if adv := res.GreedyMRAdvantage(); adv <= 0 {
		t.Errorf("GreedyMR advantage %v not positive", adv)
	}
	if out := res.Render(); !strings.Contains(out, "flickr-small") {
		t.Error("render missing dataset")
	}
}

func TestQualityUnknownDataset(t *testing.T) {
	if _, err := Quality(context.Background(), quickCfg(), "nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestViolationsExperiment(t *testing.T) {
	ctx := context.Background()
	res, err := Violations(ctx, quickCfg(), "flickr-small", []float64{1}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(SigmaGrid("flickr-small"))
	if len(res.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(res.Rows), wantRows)
	}
	for _, row := range res.Rows {
		if row.EpsPrime < 0 {
			t.Errorf("negative eps': %+v", row)
		}
		// Violation factor bounded by (1+eps) as per Theorem 1.
		if row.MaxOver > 1+row.Eps+1e-9 {
			t.Errorf("violation factor %v beyond 1+eps: %+v", row.MaxOver, row)
		}
	}
	if res.MaxEpsPrime() > 0.10 {
		t.Errorf("eps' = %v far above the paper's <=6%% range", res.MaxEpsPrime())
	}
	if out := res.Render(); !strings.Contains(out, "eps'") {
		t.Error("render missing header")
	}
}

func TestConvergenceExperiment(t *testing.T) {
	ctx := context.Background()
	res, err := Convergence(ctx, quickCfg(), "flickr-small")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 || len(res.Trace) != res.Rounds {
		t.Fatalf("rounds=%d trace=%d", res.Rounds, len(res.Trace))
	}
	// Trace is monotone and ends at 1.
	prev := 0.0
	for _, f := range res.Trace {
		if f < prev-1e-12 {
			t.Error("trace not monotone")
		}
		prev = f
	}
	if prev < 1-1e-9 {
		t.Errorf("trace ends at %v, want 1", prev)
	}
	if res.RoundsTo95 <= 0 || res.RoundsTo95 > res.Rounds {
		t.Errorf("RoundsTo95 = %d of %d", res.RoundsTo95, res.Rounds)
	}
	// The any-time property: 95% is reached well before the end (the
	// paper sees 29-45% of the rounds).
	if f := res.FractionTo95(); f > 0.9 {
		t.Errorf("95%% reached only at %.0f%% of rounds", 100*f)
	}
	if out := res.Render(); !strings.Contains(out, "95%") {
		t.Error("render missing 95% line")
	}
}

func TestSimilarityDistribution(t *testing.T) {
	cfg := quickCfg()
	for _, c := range cfg.Datasets() {
		res := SimilarityDistribution(c)
		if res.Hist.Total() == 0 {
			t.Errorf("%s: empty similarity histogram", c.Name)
		}
		if res.Summary.Min <= 0 {
			t.Errorf("%s: non-positive similarity recorded", c.Name)
		}
		if out := res.Render(); !strings.Contains(out, "similarity") {
			t.Error("render missing label")
		}
	}
}

func TestCapacityDistribution(t *testing.T) {
	cfg := quickCfg()
	c := cfg.Datasets()[0]
	for _, side := range []graph.Side{graph.ItemSide, graph.ConsumerSide} {
		res, err := CapacityDistribution(c, 1, side)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hist.Total() == 0 {
			t.Errorf("side %v: empty capacity histogram", side)
		}
		if res.Summary.Min < 1 {
			t.Errorf("side %v: capacity below 1", side)
		}
	}
}

func TestSigmaGrids(t *testing.T) {
	for _, name := range []string{"flickr-small", "flickr-large", "yahoo-answers"} {
		grid := SigmaGrid(name)
		if len(grid) < 3 {
			t.Errorf("%s: grid too small", name)
		}
		for i := 1; i < len(grid); i++ {
			if grid[i] >= grid[i-1] {
				t.Errorf("%s: grid not strictly decreasing", name)
			}
		}
	}
}

func TestScalabilityExperiment(t *testing.T) {
	ctx := context.Background()
	res, err := Scalability(ctx, quickCfg(), 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.Edges <= 0 || row.GreedyMR.Rounds <= 0 || row.StackMR.Rounds <= 0 {
			t.Errorf("row %d degenerate: %+v", i, row)
		}
		if i > 0 && row.Edges <= res.Rows[i-1].Edges {
			t.Errorf("edges not growing at row %d", i)
		}
	}
	g, s := res.RoundGrowth()
	if g <= 0 || s <= 0 {
		t.Errorf("growth ratios %v %v", g, s)
	}
	if out := res.Render(); !strings.Contains(out, "round growth") {
		t.Error("render missing growth line")
	}
}

func TestScalabilityRoundGrowthDegenerate(t *testing.T) {
	r := &ScalabilityResult{}
	if g, s := r.RoundGrowth(); g != 1 || s != 1 {
		t.Error("empty result growth should be 1,1")
	}
}

func TestConfigScaled(t *testing.T) {
	c := Defaults()
	if c.scaled(1000) != 1000 {
		t.Error("scale 1 must be identity")
	}
	c.Scale = 0.1
	if got := c.scaled(1000); got != 100 {
		t.Errorf("scaled(1000) = %d", got)
	}
	if got := c.scaled(50); got != 30 {
		t.Errorf("floor not applied: %d", got)
	}
}
