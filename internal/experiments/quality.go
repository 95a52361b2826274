package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mapreduce"
)

// QualityRow is one point of Figures 1-3: all matching algorithms run on
// the same candidate graph, reporting b-matching value and MapReduce
// iteration counts.
type QualityRow struct {
	Sigma float64
	Edges int
	// Values.
	GreedyMR    float64
	StackMR     float64
	StackGreedy float64
	// MapReduce iterations.
	GreedyMRRounds    int
	StackMRRounds     int
	StackGreedyRounds int
	// Violations (the stack algorithms may exceed capacities).
	StackMRViolation     float64
	StackGreedyViolation float64
}

// QualityResult is a full Figure 1/2/3 panel for one dataset.
type QualityResult struct {
	Dataset string
	Alpha   float64
	Eps     float64
	Rows    []QualityRow
	// MR aggregates the engine statistics of every MapReduce job the
	// panel ran (phase wall clocks, shuffle routing and spill volumes).
	MR mapreduce.Stats
}

// Quality reproduces one panel of Figures 1-3: sweep σ (lowering it adds
// edges) and run GreedyMR, StackMR and StackGreedyMR on each candidate
// graph.
func Quality(ctx context.Context, cfg Config, corpusName string) (*QualityResult, error) {
	var p *prepared
	for _, c := range cfg.Datasets() {
		if c.Name == corpusName {
			p = prepare(c)
			break
		}
	}
	if p == nil {
		return nil, fmt.Errorf("experiments: unknown dataset %q", corpusName)
	}
	res := &QualityResult{Dataset: corpusName, Alpha: cfg.Alpha, Eps: cfg.Eps}
	for _, sigma := range SigmaGrid(corpusName) {
		g, err := p.at(sigma, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		row := QualityRow{Sigma: sigma, Edges: g.NumEdges()}

		gm, err := core.GreedyMR(ctx, g, core.GreedyMROptions{MR: cfg.MR})
		if err != nil {
			return nil, fmt.Errorf("experiments: greedymr σ=%v: %w", sigma, err)
		}
		row.GreedyMR = gm.Matching.Value()
		row.GreedyMRRounds = gm.Rounds
		res.MR.Add(&gm.Shuffle)

		sm, err := runStack(ctx, g, cfg, core.MarkRandom)
		if err != nil {
			return nil, fmt.Errorf("experiments: stackmr σ=%v: %w", sigma, err)
		}
		row.StackMR = sm.Matching.Value()
		row.StackMRRounds = sm.Rounds
		row.StackMRViolation = sm.Matching.Violation()
		res.MR.Add(&sm.Shuffle)

		sg, err := runStack(ctx, g, cfg, core.MarkHeaviest)
		if err != nil {
			return nil, fmt.Errorf("experiments: stackgreedymr σ=%v: %w", sigma, err)
		}
		row.StackGreedy = sg.Matching.Value()
		row.StackGreedyRounds = sg.Rounds
		row.StackGreedyViolation = sg.Matching.Violation()
		res.MR.Add(&sg.Shuffle)

		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// GreedyMRAdvantage returns the mean relative value advantage of
// GreedyMR over StackMR across the sweep (the paper reports 31% on
// flickr-large, 11% on flickr-small, 14% on yahoo-answers).
func (r *QualityResult) GreedyMRAdvantage() float64 {
	var rel []float64
	for _, row := range r.Rows {
		if row.StackMR > 0 {
			rel = append(rel, row.GreedyMR/row.StackMR-1)
		}
	}
	return mean(rel)
}

// Render formats the panel as an aligned text table.
func (r *QualityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (alpha=%g, eps=%g): matching value and MR iterations vs #edges\n",
		r.Dataset, r.Alpha, r.Eps)
	fmt.Fprintf(&b, "%8s %9s | %12s %12s %12s | %7s %7s %7s\n",
		"sigma", "edges", "GreedyMR", "StackMR", "StackGrMR",
		"it(G)", "it(S)", "it(SG)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.3g %9d | %12.1f %12.1f %12.1f | %7d %7d %7d\n",
			row.Sigma, row.Edges, row.GreedyMR, row.StackMR, row.StackGreedy,
			row.GreedyMRRounds, row.StackMRRounds, row.StackGreedyRounds)
	}
	fmt.Fprintf(&b, "GreedyMR value advantage over StackMR: %+.1f%%\n", 100*r.GreedyMRAdvantage())
	return b.String()
}
