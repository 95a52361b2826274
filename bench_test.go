package socialmatch

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark regenerates the corresponding experiment (on corpora
// scaled down so a single iteration stays in seconds; `go test -bench
// -short` scales further) and reports the headline quantities as custom
// metrics, so `go test -bench=.` prints the same rows/series the paper
// reports. EXPERIMENTS.md records the full-scale numbers produced by
// cmd/experiments.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/simjoin"
	"repro/internal/vector"
)

// benchConfig picks the corpus scale for benchmarks.
func benchConfig(b *testing.B) experiments.Config {
	cfg := experiments.Defaults()
	cfg.Scale = 0.2
	if testing.Short() {
		cfg.Scale = 0.08
	}
	return cfg
}

// BenchmarkTable1DatasetCharacteristics regenerates Table 1: dataset
// sizes and the number of positive-similarity pairs.
func BenchmarkTable1DatasetCharacteristics(b *testing.B) {
	cfg := benchConfig(b)
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(cfg)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.NumEdges), r.Dataset+"_edges")
	}
}

// qualityBench runs one Figure 1/2/3 panel and reports the paper's
// headline comparisons: the GreedyMR-vs-StackMR value advantage and the
// iteration counts at the densest sweep point.
func qualityBench(b *testing.B, ds string) {
	cfg := benchConfig(b)
	ctx := context.Background()
	var res *experiments.QualityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Quality(ctx, cfg, ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(100*res.GreedyMRAdvantage(), "greedy_adv_%")
	b.ReportMetric(float64(last.Edges), "edges")
	b.ReportMetric(float64(last.GreedyMRRounds), "greedymr_rounds")
	b.ReportMetric(float64(last.StackMRRounds), "stackmr_rounds")
}

// BenchmarkFigure1FlickrSmall regenerates Figure 1 (flickr-small:
// matching value and iterations vs number of edges).
func BenchmarkFigure1FlickrSmall(b *testing.B) { qualityBench(b, "flickr-small") }

// BenchmarkFigure2FlickrLarge regenerates Figure 2 (flickr-large).
func BenchmarkFigure2FlickrLarge(b *testing.B) { qualityBench(b, "flickr-large") }

// BenchmarkFigure3YahooAnswers regenerates Figure 3 (yahoo-answers).
func BenchmarkFigure3YahooAnswers(b *testing.B) { qualityBench(b, "yahoo-answers") }

// BenchmarkFigure4CapacityViolations regenerates Figure 4: StackMR's
// average relative capacity violation ε′ across (ε, α, σ).
func BenchmarkFigure4CapacityViolations(b *testing.B) {
	cfg := benchConfig(b)
	ctx := context.Background()
	var worstFlickr, worstYahoo float64
	for i := 0; i < b.N; i++ {
		rf, err := experiments.Violations(ctx, cfg, "flickr-large",
			[]float64{1}, []float64{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		ry, err := experiments.Violations(ctx, cfg, "yahoo-answers",
			[]float64{1}, []float64{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		worstFlickr, worstYahoo = rf.MaxEpsPrime(), ry.MaxEpsPrime()
	}
	b.ReportMetric(100*worstFlickr, "flickr_eps'_%")
	b.ReportMetric(100*worstYahoo, "yahoo_eps'_%")
}

// BenchmarkFigure5GreedyMRConvergence regenerates Figure 5: the fraction
// of GreedyMR iterations needed to reach 95% of the final value.
func BenchmarkFigure5GreedyMRConvergence(b *testing.B) {
	cfg := benchConfig(b)
	ctx := context.Background()
	for _, ds := range []string{"flickr-small", "flickr-large", "yahoo-answers"} {
		ds := ds
		b.Run(ds, func(b *testing.B) {
			var res *experiments.ConvergenceResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.Convergence(ctx, cfg, ds)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.FractionTo95(), "rounds_to_95%_%")
			b.ReportMetric(float64(res.Rounds), "rounds")
		})
	}
}

// BenchmarkFigure6SimilarityDistribution regenerates Figure 6: the
// distribution of edge similarities per dataset.
func BenchmarkFigure6SimilarityDistribution(b *testing.B) {
	cfg := benchConfig(b)
	corpora := cfg.Datasets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range corpora {
			res := experiments.SimilarityDistribution(c)
			if i == b.N-1 {
				b.ReportMetric(res.Summary.P99, c.Name+"_p99")
			}
		}
	}
}

// BenchmarkFigure7CapacityDistribution regenerates Figure 7: the
// distribution of node capacities per dataset.
func BenchmarkFigure7CapacityDistribution(b *testing.B) {
	cfg := benchConfig(b)
	corpora := cfg.Datasets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range corpora {
			for _, side := range []graph.Side{graph.ItemSide, graph.ConsumerSide} {
				res, err := experiments.CapacityDistribution(c, cfg.Alpha, side)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 && side == graph.ConsumerSide {
					b.ReportMetric(res.Summary.GiniCoefficent, c.Name+"_gini")
				}
			}
		}
	}
}

// --- component benchmarks: the substrates on fixed workloads ---

// benchGraph builds a mid-size synthetic matching instance.
func benchGraph(seed int64) *graph.Bipartite {
	return dataset.Synthetic(dataset.SyntheticConfig{
		NumItems: 3000, NumConsumers: 600, MeanDegree: 10,
		DegreeAlpha: 1.4, WeightScale: 1, CapacityAlpha: 1.2,
		CapacityMax: 60, Seed: seed,
	})
}

// BenchmarkGreedyCentralized measures the sequential greedy baseline.
func BenchmarkGreedyCentralized(b *testing.B) {
	g := benchGraph(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Greedy(g)
		if res.Matching.Size() == 0 {
			b.Fatal("empty matching")
		}
	}
}

// BenchmarkGreedyMR measures the MapReduce greedy on the same instance.
func BenchmarkGreedyMR(b *testing.B) {
	g := benchGraph(1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.GreedyMR(ctx, g, core.GreedyMROptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Rounds), "rounds")
		}
	}
}

// BenchmarkStackMR measures the stack algorithm on the same instance.
func BenchmarkStackMR(b *testing.B) {
	g := benchGraph(1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.StackMR(ctx, g, core.StackOptions{Eps: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(res.Matching.Violation(), "eps'")
		}
	}
}

// --- ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationStrictVsRelaxed quantifies why the paper evaluates
// Algorithm 2 ((1+ε) violations) instead of Algorithm 1 (strict): the
// overflow-resolution phase costs extra MapReduce rounds.
func BenchmarkAblationStrictVsRelaxed(b *testing.B) {
	g := benchGraph(3)
	ctx := context.Background()
	for _, variant := range []string{"relaxed", "strict"} {
		variant := variant
		b.Run(variant, func(b *testing.B) {
			var rounds int
			var value float64
			for i := 0; i < b.N; i++ {
				var res *core.Result
				var err error
				if variant == "strict" {
					res, err = core.StackMRStrict(ctx, g, core.StackOptions{Eps: 1, Seed: 1})
				} else {
					res, err = core.StackMR(ctx, g, core.StackOptions{Eps: 1, Seed: 1})
				}
				if err != nil {
					b.Fatal(err)
				}
				rounds, value = res.Rounds, res.Matching.Value()
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(value, "value")
		})
	}
}

// BenchmarkAblationMarkingStrategy compares the random marking of
// StackMR with the heaviest-edges marking of StackGreedyMR (Section 6,
// "Variants").
func BenchmarkAblationMarkingStrategy(b *testing.B) {
	g := benchGraph(4)
	ctx := context.Background()
	for _, strategy := range []core.MarkingStrategy{core.MarkRandom, core.MarkHeaviest} {
		strategy := strategy
		b.Run(strategy.String(), func(b *testing.B) {
			var value float64
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := core.StackMR(ctx, g, core.StackOptions{
					Eps: 1, Seed: 1, Strategy: strategy,
				})
				if err != nil {
					b.Fatal(err)
				}
				value, rounds = res.Matching.Value(), res.Rounds
			}
			b.ReportMetric(value, "value")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationEpsSweep shows the ε trade-off of Theorem 1: smaller
// ε means thinner layers (more rounds) but smaller capacity violations.
func BenchmarkAblationEpsSweep(b *testing.B) {
	g := benchGraph(5)
	ctx := context.Background()
	for _, eps := range []float64{0.25, 0.5, 1} {
		eps := eps
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.StackMR(ctx, g, core.StackOptions{Eps: eps, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(100*res.Matching.Violation(), "eps'_%")
			b.ReportMetric(res.Matching.MaxViolationFactor(), "max_stretch")
		})
	}
}

// BenchmarkAblationPrefixFilter compares the prefix-filtered similarity
// join (Section 5.1, after Baraglia et al.) with the naive full-index
// join it improves upon: fewer candidates, postings and shuffled records
// for the same output. The full index is costed, not run: its postings
// are every term of every item, its candidates every co-occurring pair,
// and its shuffle those postings plus one partial product per pair and
// shared term. Its timing is that serial count, not a MapReduce join.
func BenchmarkAblationPrefixFilter(b *testing.B) {
	// Unit-normalized tf·idf vectors (the yahoo-answers preprocessing)
	// give the suffix bound its pruning power; raw tag counts have
	// per-term maxima too large to prune much.
	cfg := dataset.AnswersScaledConfig()
	cfg.NumItems, cfg.NumConsumers = 900, 250
	c := dataset.Answers("ablation", cfg)
	const sigma = 0.3
	b.Run("full-index", func(b *testing.B) {
		var full fullIndexCost
		for i := 0; i < b.N; i++ {
			full = costFullIndex(c.Items, c.Consumers)
		}
		b.ReportMetric(float64(full.candidates), "candidates")
		b.ReportMetric(float64(full.postings), "postings")
		b.ReportMetric(float64(full.postings+full.partials), "shuffle_records")
	})
	b.Run("prefix-filter", func(b *testing.B) {
		var res *simjoin.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = simjoin.Join(context.Background(), c.Items, c.Consumers, sigma, simjoin.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Candidates), "candidates")
		b.ReportMetric(float64(res.PostingEntries), "postings")
		b.ReportMetric(float64(res.Shuffle.ShuffleRecords), "shuffle_records")
	})
}

// fullIndexCost is what an unpruned inverted index over the items costs
// a two-job join.
type fullIndexCost struct {
	postings   int64 // index entries: every term of every item
	candidates int64 // distinct (item, consumer) pairs sharing a term
	partials   int64 // probe records: one per pair and shared term
}

func costFullIndex(items, consumers []vector.Sparse) fullIndexCost {
	var cost fullIndexCost
	index := make(map[vector.TermID][]int32)
	for i, d := range items {
		for _, e := range d.Entries() {
			index[e.Term] = append(index[e.Term], int32(i))
		}
		cost.postings += int64(d.Len())
	}
	seen := make([]bool, len(items))
	var hits []int32
	for _, c := range consumers {
		hits = hits[:0]
		for _, e := range c.Entries() {
			cost.partials += int64(len(index[e.Term]))
			for _, i := range index[e.Term] {
				if !seen[i] {
					seen[i] = true
					hits = append(hits, i)
				}
			}
		}
		cost.candidates += int64(len(hits))
		for _, i := range hits {
			seen[i] = false
		}
	}
	return cost
}

// BenchmarkScalability regenerates the paper's scaling claim: StackMR's
// round count stays nearly flat as the graph doubles repeatedly, while
// GreedyMR's grows.
func BenchmarkScalability(b *testing.B) {
	cfg := benchConfig(b)
	ctx := context.Background()
	base, steps := 400, 4
	if testing.Short() {
		base, steps = 200, 3
	}
	var res *experiments.ScalabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Scalability(ctx, cfg, base, steps)
		if err != nil {
			b.Fatal(err)
		}
	}
	g, s := res.RoundGrowth()
	b.ReportMetric(g, "greedymr_round_growth")
	b.ReportMetric(s, "stackmr_round_growth")
	b.ReportMetric(float64(res.Rows[len(res.Rows)-1].Edges), "max_edges")
}

// BenchmarkExactFlowOracle measures the exact min-cost-flow solver on a
// small instance (the paper's motivation for approximation: exact
// algorithms do not scale).
func BenchmarkExactFlowOracle(b *testing.B) {
	g := dataset.Synthetic(dataset.SyntheticConfig{
		NumItems: 300, NumConsumers: 80, MeanDegree: 6,
		DegreeAlpha: 1.5, WeightScale: 1, CapacityAlpha: 1.3,
		CapacityMax: 10, Seed: 8,
	})
	b.ResetTimer()
	var opt float64
	for i := 0; i < b.N; i++ {
		_, v, err := flow.MaxWeightBMatching(g)
		if err != nil {
			b.Fatal(err)
		}
		opt = v
	}
	b.ReportMetric(opt, "opt_value")
}

// BenchmarkSimilarityJoin measures the MapReduce prefix-filter join
// against the number of candidates it prunes.
func BenchmarkSimilarityJoin(b *testing.B) {
	cfg := dataset.FlickrSmallConfig()
	cfg.NumItems, cfg.NumConsumers = 800, 200
	c := dataset.Flickr("bench", cfg)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := simjoin.Join(ctx, c.Items, c.Consumers, 4, simjoin.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Candidates), "candidates")
			b.ReportMetric(float64(len(res.Edges)), "edges")
		}
	}
}
