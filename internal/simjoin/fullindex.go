package simjoin

import (
	"context"
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/vector"
)

// JoinFullIndex computes the same join as Join but with a full (unpruned)
// inverted index: every term of every item is indexed, so probing
// generates every co-occurring pair as a candidate. This is the
// straightforward MapReduce join that prefix filtering improves upon —
// kept as the ablation baseline (BenchmarkAblationPrefixFilter measures
// the candidate and shuffle reduction, which is the contribution of
// Baraglia et al. that Section 5.1 builds on).
//
// Unlike Join, the candidate score can be accumulated exactly from the
// index (all terms are present), so verification needs no side access to
// the vectors: the probe job's reducers sum the per-term partial
// products directly.
func JoinFullIndex(ctx context.Context, items, consumers []vector.Sparse, sigma float64, opts Options) (*Result, error) {
	if err := checkSigma(sigma); err != nil {
		return nil, err
	}
	driver := mapreduce.NewDriver(opts.MR)

	// Job 1: full inverted index over items.
	indexOut, err := mapreduce.RunJob(ctx, driver, "fulljoin-index",
		enumerate(items),
		func(i int32, d vector.Sparse, out mapreduce.Emitter[vector.TermID, posting]) error {
			for _, e := range d.Entries() {
				out.Emit(e.Term, posting{doc: i, w: e.Weight})
			}
			return nil
		},
		mapreduce.CollectValues[vector.TermID, posting]())
	if err != nil {
		return nil, fmt.Errorf("simjoin: full index job: %w", err)
	}
	index := make(map[vector.TermID][]posting, len(indexOut))
	var postings int64
	for _, p := range indexOut {
		index[p.Key] = p.Value
		postings += int64(len(p.Value))
	}

	// Job 2: probe with partial products; reduce by pair sums them to
	// the exact dot product.
	probeOut, err := mapreduce.RunJob(ctx, driver, "fulljoin-probe",
		enumerate(consumers),
		func(j int32, c vector.Sparse, out mapreduce.Emitter[[2]int32, float64]) error {
			for _, e := range c.Entries() {
				for _, p := range index[e.Term] {
					out.Emit([2]int32{p.doc, j}, e.Weight*p.w)
				}
			}
			return nil
		},
		func(pair [2]int32, partials []float64, out mapreduce.Emitter[[2]int32, float64]) error {
			sim := 0.0
			for _, p := range partials {
				sim += p
			}
			if sim >= sigma {
				out.Emit(pair, sim)
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("simjoin: full probe job: %w", err)
	}

	res := &Result{
		Rounds: driver.Rounds(),
		// This probe emits a pair once per shared term and is keyed by
		// pair, so — unlike Join, whose shuffled records are the distinct
		// pairs — its candidates are its reduce groups, not its records.
		Candidates:     driver.Trace()[driver.Rounds()-1].ReduceGroups,
		PostingEntries: postings,
		Shuffle:        driver.Total(),
	}
	for _, p := range probeOut {
		res.Edges = append(res.Edges, Edge{Item: p.Key[0], Consumer: p.Key[1], Sim: p.Value})
	}
	sortEdges(res.Edges)
	return res, nil
}
