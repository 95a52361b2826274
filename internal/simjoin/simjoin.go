// Package simjoin computes the candidate edge set of the matching
// problem: all item-consumer pairs with dot-product similarity at least
// σ (paper Section 5.1). It adapts the MapReduce prefix-filtering
// similarity self-join of Baraglia, De Francisci Morales and Lucchese
// (ICDM 2010) to the bipartite case: the inverted index is built over
// one collection and pruned so that any pair reaching the threshold
// shares at least one indexed term, and the candidates generated by
// querying the index are then verified exactly. Two MapReduce jobs are
// required, exactly as in the original algorithm: one to build the
// pruned index, one to probe it and verify candidates.
//
// Prefix filtering: fix a global term order (here: ascending consumer
// document frequency, so that rare terms come first and generate few
// candidates). For an item vector d sorted in this order, index only the
// shortest prefix whose remaining suffix cannot contribute σ on its own,
// i.e. the smallest p with Σ_{i>p} w_d(t_i)·maxw_C(t_i) < σ, where
// maxw_C(t) is the largest weight of t in any consumer. A consumer
// matching d only on suffix terms is then guaranteed to score below σ,
// so indexing the prefix loses no pair.
package simjoin

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/vector"
)

// Edge is one discovered candidate pair with its exact similarity.
type Edge struct {
	// Item and Consumer are indexes into the input collections.
	Item     int32
	Consumer int32
	// Sim is the exact dot-product similarity (≥ the join threshold).
	Sim float64
}

// Result carries the joined edges and the cost of computing them.
type Result struct {
	Edges []Edge
	// Rounds is the number of MapReduce jobs (always 2 for the
	// prefix-filter join).
	Rounds int
	// Candidates is the number of distinct candidate pairs generated by
	// probing the pruned index; the verification step filters them down
	// to len(Edges). The ratio measures the pruning power of prefix
	// filtering (the brute-force join would generate every co-occurring
	// pair).
	Candidates int64
	// PostingEntries is the size of the pruned inverted index.
	PostingEntries int64
	// Shuffle aggregates MapReduce statistics over both jobs.
	Shuffle mapreduce.Stats
}

// Options configures the join.
type Options struct {
	// MR is the MapReduce configuration of both jobs.
	MR mapreduce.Config
}

// posting is one pruned inverted-index entry.
type posting struct {
	doc int32
	w   float64
}

// Join finds every (item, consumer) pair with items[i]·consumers[j] ≥
// sigma. Vectors with no terms never match. The threshold must be
// positive: with σ ≤ 0 the result would be the full cross product, which
// the caller should build directly if it truly wants it.
func Join(ctx context.Context, items, consumers []vector.Sparse, sigma float64, opts Options) (*Result, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("simjoin: threshold must be positive, got %v", sigma)
	}
	driver := mapreduce.NewDriver(opts.MR)

	// Global term statistics of the consumer side: max weight bounds
	// the suffix contribution, document frequency fixes the term order.
	maxW := vector.MaxWeights(consumers)
	df := vector.DocumentFrequencies(consumers)

	// Job 1: build the pruned inverted index over items. Both jobs run
	// Dataset-in/Dataset-out: the output postings stay per-partition and
	// feed the index map partition by partition, skipping the global
	// concat-and-sort barrier a flat Run would impose between the jobs.
	indexOut, err := mapreduce.RunJobDS(ctx, driver, "simjoin-index",
		mapreduce.PartitionDataset(enumerate(items), driver.Partitions()),
		func(i int32, d vector.Sparse, out mapreduce.Emitter[vector.TermID, posting]) error {
			for _, e := range prefixEntries(d, sigma, maxW, df) {
				out.Emit(e.Term, posting{doc: i, w: e.Weight})
			}
			return nil
		},
		mapreduce.CollectValues[vector.TermID, posting]())
	if err != nil {
		return nil, fmt.Errorf("simjoin: index job: %w", err)
	}
	if err := indexOut.Materialize(); err != nil {
		return nil, fmt.Errorf("simjoin: index job: %w", err)
	}
	index := make(map[vector.TermID][]posting, indexOut.Len())
	var postings int64
	indexOut.Each(func(t vector.TermID, ps []posting) {
		index[t] = ps
		postings += int64(len(ps))
	})
	// The posting slices are the reducers' own copies (CollectValues
	// clones), so only the pair spines return to the pool here.
	indexOut.Recycle()

	// Job 2: probe the index with every consumer (the index and the
	// full vectors travel as side data, the distributed-cache pattern),
	// then verify each candidate pair exactly in the reducer. Under the
	// dist backend the verification runs on the workers — they hold the
	// same vectors (registered via RegisterDistJobs). Every candidate
	// pair is one reduce group, so the job's own ReduceGroups is the
	// candidate count on every backend.
	probeOut, probeStats, err := mapreduce.RunDS(ctx, driver.Config("simjoin-probe"),
		mapreduce.PartitionDataset(enumerate(consumers), driver.Partitions()),
		func(j int32, c vector.Sparse, out mapreduce.Emitter[[2]int32, struct{}]) error {
			seen := make(map[int32]bool)
			for _, e := range c.Entries() {
				for _, p := range index[e.Term] {
					if !seen[p.doc] {
						seen[p.doc] = true
						out.Emit([2]int32{p.doc, j}, struct{}{})
					}
				}
			}
			return nil
		},
		probeReduce(items, consumers, sigma))
	if err != nil {
		return nil, fmt.Errorf("simjoin: probe job: %w", err)
	}
	if err := driver.Observe(probeStats); err != nil {
		return nil, err
	}
	if err := probeOut.Materialize(); err != nil {
		return nil, fmt.Errorf("simjoin: probe job: %w", err)
	}

	res := &Result{
		Rounds:         driver.Rounds(),
		Candidates:     probeStats.ReduceGroups,
		PostingEntries: postings,
		Shuffle:        driver.Total(),
	}
	probeOut.Each(func(pair [2]int32, sim float64) {
		res.Edges = append(res.Edges, Edge{Item: pair[0], Consumer: pair[1], Sim: sim})
	})
	probeOut.Recycle()
	sortEdges(res.Edges)
	return res, nil
}

// probeReduce builds the verification reduce: score the candidate
// exactly, keep it when it clears the threshold. The constructor form
// is shared by the local path and the dist worker registration, so both
// run the identical function.
func probeReduce(items, consumers []vector.Sparse, sigma float64) mapreduce.ReduceFunc[[2]int32, struct{}, [2]int32, float64] {
	return func(pair [2]int32, _ []struct{}, out mapreduce.Emitter[[2]int32, float64]) error {
		if sim := items[pair[0]].Dot(consumers[pair[1]]); sim >= sigma {
			out.Emit(pair, sim)
		}
		return nil
	}
}

// RegisterDistJobs registers the join's worker-side reduces for the
// given inputs: a dist worker process regenerates (or loads) the same
// deterministic corpora the coordinator uses, then calls this once
// before serving.
func RegisterDistJobs(items, consumers []vector.Sparse, sigma float64) {
	mapreduce.RegisterDistReduce("simjoin-index", mapreduce.CollectValues[vector.TermID, posting]())
	mapreduce.RegisterDistReduce("simjoin-probe", probeReduce(items, consumers, sigma))
}

// prefixEntries returns the entries of d to index: d's entries sorted by
// ascending consumer document frequency, truncated to the shortest
// prefix whose suffix upper bound Σ w·maxW is below sigma.
func prefixEntries(d vector.Sparse, sigma float64, maxW map[vector.TermID]float64, df map[vector.TermID]int) []vector.Entry {
	entries := append([]vector.Entry(nil), d.Entries()...)
	sort.Slice(entries, func(a, b int) bool {
		da, db := df[entries[a].Term], df[entries[b].Term]
		if da != db {
			return da < db
		}
		return entries[a].Term < entries[b].Term
	})
	// Suffix bounds from the back.
	suffix := 0.0
	cut := len(entries)
	for i := len(entries) - 1; i >= 0; i-- {
		next := suffix + entries[i].Weight*maxW[entries[i].Term]
		if next >= sigma {
			break
		}
		suffix = next
		cut = i
	}
	return entries[:cut]
}

// BruteForce computes the join by scoring every pair; the reference the
// tests compare against, and the baseline the paper argues is
// impractical at scale (it materializes O(|T||C|) pairs).
func BruteForce(items, consumers []vector.Sparse, sigma float64) []Edge {
	var out []Edge
	for i, d := range items {
		for j, c := range consumers {
			if sim := d.Dot(c); sim >= sigma {
				out = append(out, Edge{Item: int32(i), Consumer: int32(j), Sim: sim})
			}
		}
	}
	sortEdges(out)
	return out
}

// ToGraph materializes joined edges as a bipartite graph with the given
// part sizes (capacities unset).
func ToGraph(edges []Edge, numItems, numConsumers int) *graph.Bipartite {
	g := graph.NewBipartite(numItems, numConsumers)
	for _, e := range edges {
		g.AddEdge(g.ItemID(int(e.Item)), g.ConsumerID(int(e.Consumer)), e.Sim)
	}
	return g
}

// enumerate keys a slice by position.
func enumerate(docs []vector.Sparse) []mapreduce.Pair[int32, vector.Sparse] {
	out := make([]mapreduce.Pair[int32, vector.Sparse], len(docs))
	for i, d := range docs {
		out[i] = mapreduce.P(int32(i), d)
	}
	return out
}

// sortEdges orders edges by (item, consumer) for deterministic output.
// The pairs are unique, so the order is total and an unstable sort
// reproduces it; input that already is in order is left alone.
func sortEdges(edges []Edge) {
	byPair := func(a, b Edge) int {
		if c := cmp.Compare(a.Item, b.Item); c != 0 {
			return c
		}
		return cmp.Compare(a.Consumer, b.Consumer)
	}
	if !slices.IsSortedFunc(edges, byPair) {
		slices.SortFunc(edges, byPair)
	}
}
