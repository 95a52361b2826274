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
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

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
	// probing the pruned index — the records the probe job shuffles, one
	// per pair, since a consumer's map call emits an item once; the
	// verification step filters them down to len(Edges). The ratio
	// measures the pruning power of prefix filtering (the brute-force
	// join would generate every co-occurring pair).
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

// Join finds every (item, consumer) pair with items[i]·consumers[j] ≥
// sigma. Vectors with no terms never match. The threshold must be
// positive and finite: with σ ≤ 0 the result would be the full cross
// product, which the caller should build directly if it truly wants it.
func Join(ctx context.Context, items, consumers []vector.Sparse, sigma float64, opts Options) (*Result, error) {
	if err := checkSigma(sigma); err != nil {
		return nil, err
	}
	driver := mapreduce.NewDriver(opts.MR)
	defer driver.Release()

	// Job 1: build the pruned inverted index over items. Both jobs run
	// Dataset-in/Dataset-out over records built where they reside
	// (BuildDS: on dist the workers hold the vectors, so nothing is
	// shipped), and the output postings stay per-partition, with no
	// global concat-and-sort between the jobs.
	itemDocs, err := mapreduce.BuildDS(driver, "simjoin-items", nil, docKeys(len(items)))
	if err != nil {
		return nil, fmt.Errorf("simjoin: index job: %w", err)
	}
	indexOut, err := mapreduce.RunJobDS(ctx, driver, "simjoin-index", itemDocs,
		newIndexMap(items, consumers, sigma), indexReduce)
	itemDocs.Recycle()
	if err != nil {
		return nil, fmt.Errorf("simjoin: index job: %w", err)
	}
	if err := indexOut.Materialize(); err != nil {
		return nil, fmt.Errorf("simjoin: index job: %w", err)
	}
	v := newVerifier(items, consumers, sigma)
	index := make([][]int32, len(v.rankOf))
	var entries int64
	indexOut.Each(func(t vector.TermID, ps postings) {
		// A term no consumer has is counted and never probed.
		if r, ok := v.rankOf[t]; ok {
			index[r] = ps
		}
		entries += int64(len(ps))
	})
	indexOut.Recycle()

	// Job 2: probe the index with every consumer (the index and the
	// translated vectors travel as side data, the distributed-cache
	// pattern) and verify the candidates exactly in the reducer. The job
	// is keyed by consumer: a map call emits each candidate item of its
	// consumer once, under the consumer's own key (the identity route),
	// and the one reduce group per consumer scores them all against a
	// single scatter of the consumer's weights. The shuffled records are
	// therefore the distinct candidate pairs, on every backend. Under the
	// dist backend the probe and the verification run on the workers —
	// they hold the same vectors (registered via RegisterDistJobs), and
	// the index reaches them once, in the job's parameters.
	consumerDocs, err := mapreduce.BuildDS(driver, "simjoin-consumers", nil, docKeys(len(consumers)))
	if err != nil {
		return nil, fmt.Errorf("simjoin: probe job: %w", err)
	}
	cfg := driver.Config("simjoin-probe")
	if cfg.Shuffle.Backend == mapreduce.ShuffleDist {
		cfg.DistParams = encodeIndex(index)
	}
	probeOut, probeStats, err := mapreduce.RunDS(ctx, cfg, consumerDocs,
		v.probeMap(index, len(items)), v.verifyReduce)
	consumerDocs.Recycle()
	if err != nil {
		return nil, fmt.Errorf("simjoin: probe job: %w", err)
	}
	if err := driver.Observe(probeStats); err != nil {
		probeOut.Recycle()
		return nil, err
	}
	if err := probeOut.Materialize(); err != nil {
		return nil, fmt.Errorf("simjoin: probe job: %w", err)
	}

	res := &Result{
		Rounds:         driver.Rounds(),
		Candidates:     probeStats.ShuffleRecords,
		PostingEntries: entries,
		Shuffle:        driver.Total(),
		Edges:          make([]Edge, 0, probeOut.Len()),
	}
	probeOut.Each(func(pair [2]int32, sim float64) {
		res.Edges = append(res.Edges, Edge{Item: pair[0], Consumer: pair[1], Sim: sim})
	})
	probeOut.Recycle()
	sortEdges(res.Edges)
	return res, nil
}

// newIndexMap builds the index job's map over the items: item i is
// posted under each term of its prefix. The term statistics of the
// consumer side fix the prefix: max weight bounds the suffix
// contribution, document frequency fixes the term order. Only the item
// travels: the probe reads no weight, and the verify reduce scores from
// the vectors.
func newIndexMap(items, consumers []vector.Sparse, sigma float64) mapreduce.MapFunc[int32, struct{}, vector.TermID, int32] {
	maxW := vector.MaxWeights(consumers)
	df := vector.DocumentFrequencies(consumers)
	return func(i int32, _ struct{}, out mapreduce.Emitter[vector.TermID, int32]) error {
		for _, e := range prefixEntries(items[i], sigma, maxW, df) {
			out.Emit(e.Term, i)
		}
		return nil
	}
}

// indexReduce emits a term's postings as one group. The clone is
// required: the engine owns the values slice and reuses its backing
// array for later groups (see mapreduce.ReduceFunc).
func indexReduce(t vector.TermID, docs []int32, out mapreduce.Emitter[vector.TermID, postings]) error {
	out.Emit(t, postings(slices.Clone(docs)))
	return nil
}

// rankedEntry is a vector component whose term is replaced by the term's
// rank in the consumer vocabulary.
type rankedEntry struct {
	rank int32
	w    float64
}

// verifier is the probe job's side data: both collections translated to
// the consumer vocabulary, its terms ranked in ascending TermID order, so
// a translated vector lists its terms in the order Sparse.Dot visits
// them. Ranks index the pruned index and the reduce's weight table, which
// are therefore as long as the consumers have distinct terms whatever the
// ids are (a hashed id near 2³¹ costs one rank). Item terms no consumer
// has are dropped: they score zero. Join and RegisterDistJobs build it
// from the same vectors, so coordinator and workers agree.
type verifier struct {
	sigma            float64
	rankOf           map[vector.TermID]int32
	items, consumers [][]rankedEntry
}

func newVerifier(items, consumers []vector.Sparse, sigma float64) *verifier {
	v := &verifier{sigma: sigma, rankOf: make(map[vector.TermID]int32)}
	var terms []vector.TermID
	for _, c := range consumers {
		for _, e := range c.Entries() {
			if _, ok := v.rankOf[e.Term]; !ok {
				v.rankOf[e.Term] = 0
				terms = append(terms, e.Term)
			}
		}
	}
	slices.Sort(terms)
	for r, t := range terms {
		v.rankOf[t] = int32(r)
	}
	v.items, v.consumers = v.translate(items), v.translate(consumers)
	return v
}

// translate re-terms docs by rank.
func (v *verifier) translate(docs []vector.Sparse) [][]rankedEntry {
	out := make([][]rankedEntry, len(docs))
	for i, d := range docs {
		out[i] = make([]rankedEntry, 0, d.Len())
		for _, e := range d.Entries() {
			if r, ok := v.rankOf[e.Term]; ok {
				out[i] = append(out[i], rankedEntry{rank: r, w: e.Weight})
			}
		}
	}
	return out
}

// seenPool lends probe map calls their item-indexed stamp tables and
// weightPool lends verify reduce calls their rank-indexed weight tables.
// Both are all zero between calls: the borrower wipes what it set — by
// walking its input again, not by telling calls apart (a retried task or
// a re-run dist attempt handles a consumer twice in one job, and the
// tables outlive the job).
var (
	seenPool   = sync.Pool{New: func() any { return new([]bool) }}
	weightPool = sync.Pool{New: func() any { return new([]float64) }}
)

// borrowed is a pooled table's view over n entries, grown on first use.
func borrowed[T any](table *[]T, n int) []T {
	if len(*table) < n {
		*table = make([]T, n)
	}
	return (*table)[:n]
}

// probeMap builds the probe job's map over the pruned index (the items
// posted under each term, by rank): look up the postings of every term
// of consumer j and emit each item found once, as (j, item).
func (v *verifier) probeMap(index [][]int32, numItems int) mapreduce.MapFunc[int32, struct{}, int32, int32] {
	return func(j int32, _ struct{}, out mapreduce.Emitter[int32, int32]) error {
		table := seenPool.Get().(*[]bool)
		defer seenPool.Put(table)
		seen := borrowed(table, numItems)
		for _, e := range v.consumers[j] {
			for _, doc := range index[e.rank] {
				if !seen[doc] {
					seen[doc] = true
					out.Emit(j, doc)
				}
			}
		}
		for _, e := range v.consumers[j] {
			for _, doc := range index[e.rank] {
				seen[doc] = false
			}
		}
		return nil
	}
}

// verifyReduce scores consumer j's candidates exactly and keeps those
// that clear the threshold. The consumer is scattered once into the
// weight table, so a candidate costs a walk over the item's own entries.
// Products are added in ascending term order and a term the consumer
// lacks adds +0 to a sum that is never negative, so the result is
// Sparse.Dot's bit for bit (weights are finite by vector's contract). The
// local path and the dist worker registration share this method.
func (v *verifier) verifyReduce(j int32, docs []int32, out mapreduce.Emitter[[2]int32, float64]) error {
	table := weightPool.Get().(*[]float64)
	defer weightPool.Put(table)
	weights := borrowed(table, len(v.rankOf))
	for _, e := range v.consumers[j] {
		weights[e.rank] = e.w
	}
	for _, d := range docs {
		sim := 0.0
		for _, e := range v.items[d] {
			sim += e.w * weights[e.rank]
		}
		if sim >= v.sigma {
			out.Emit([2]int32{d, j}, sim)
		}
	}
	for _, e := range v.consumers[j] {
		weights[e.rank] = 0
	}
	return nil
}

// RegisterDistJobs registers the join's worker-side builders and jobs
// for the given inputs: a dist worker process regenerates (or loads) the
// same deterministic corpora the coordinator uses, then calls this once
// before serving. The workers build both jobs' input records themselves
// and map them against their own vectors; only the pruned index comes
// from the coordinator, in the probe job's parameters.
func RegisterDistJobs(items, consumers []vector.Sparse, sigma float64) {
	mapreduce.RegisterDistBuild("simjoin-items", func([]byte) (func(int, func(int32) bool) []mapreduce.Pair[int32, struct{}], error) {
		return docKeys(len(items)), nil
	})
	mapreduce.RegisterDistBuild("simjoin-consumers", func([]byte) (func(int, func(int32) bool) []mapreduce.Pair[int32, struct{}], error) {
		return docKeys(len(consumers)), nil
	})
	mapreduce.RegisterDistMapReduce("simjoin-index", newIndexMap(items, consumers, sigma), indexReduce)
	v := newVerifier(items, consumers, sigma)
	mapreduce.RegisterDistJob("simjoin-probe", func(params []byte) (mapreduce.DistJob[int32, struct{}, int32, int32, [2]int32, float64], error) {
		var job mapreduce.DistJob[int32, struct{}, int32, int32, [2]int32, float64]
		index, err := decodeIndex(params, len(items))
		if err != nil {
			return job, err
		}
		if len(index) != len(v.rankOf) {
			return job, fmt.Errorf("simjoin: the index has %d terms, this worker's consumers %d", len(index), len(v.rankOf))
		}
		job.Map, job.Reduce = v.probeMap(index, len(items)), v.verifyReduce
		return job, nil
	})
}

// checkSigma refuses a join threshold that is not a finite positive
// number. NaN fails every comparison, so no posting would be kept and the
// join would find nothing without an error.
func checkSigma(sigma float64) error {
	if !(sigma > 0) || math.IsInf(sigma, 1) {
		return fmt.Errorf("simjoin: threshold %v is not a finite positive number", sigma)
	}
	return nil
}

// prefixEntries returns the entries of d to index: d's entries sorted by
// ascending consumer document frequency, then term, truncated to the
// shortest prefix whose suffix upper bound Σ w·maxW is below sigma.
func prefixEntries(d vector.Sparse, sigma float64, maxW map[vector.TermID]float64, df map[vector.TermID]int) []vector.Entry {
	// d's entries ascend by term, so the keys df<<32 | position sort into
	// (df, term) order, each entry looking its df up once.
	keys := make([]uint64, d.Len())
	for i, e := range d.Entries() {
		keys[i] = uint64(df[e.Term])<<32 | uint64(i)
	}
	slices.Sort(keys)
	// Suffix bounds from the back.
	suffix := 0.0
	cut := len(keys)
	for i := len(keys) - 1; i >= 0; i-- {
		e := d.At(int(uint32(keys[i])))
		next := suffix + e.Weight*maxW[e.Term]
		if next >= sigma {
			break
		}
		suffix = next
		cut = i
	}
	entries := make([]vector.Entry, cut)
	for i := range entries {
		entries[i] = d.At(int(uint32(keys[i])))
	}
	return entries
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
	return out // in (item, consumer) order by construction
}

// ToGraph materializes joined edges as a bipartite graph with the given
// part sizes (capacities unset).
func ToGraph(edges []Edge, numItems, numConsumers int) *graph.Bipartite {
	g := graph.NewBipartite(numItems, numConsumers)
	g.Grow(len(edges))
	for _, e := range edges {
		g.AddEdge(g.ItemID(int(e.Item)), g.ConsumerID(int(e.Consumer)), e.Sim)
	}
	return g
}

// docKeys builds the partitions of a collection of n documents as job
// input: each partition's positions, ascending, with nothing attached —
// the jobs' maps read the vectors by position.
func docKeys(n int) func(p int, owns func(int32) bool) []mapreduce.Pair[int32, struct{}] {
	return func(p int, owns func(int32) bool) []mapreduce.Pair[int32, struct{}] {
		var part []mapreduce.Pair[int32, struct{}]
		for i := int32(0); int(i) < n; i++ {
			if owns(i) {
				part = append(part, mapreduce.P(i, struct{}{}))
			}
		}
		return part
	}
}

// sortEdges orders edges by (item, consumer) for deterministic output.
// The probe job's output is grouped by consumer within each partition,
// far from that order, and both ids are small indexes into the input
// collections, so this is two stable counting scatters — by consumer,
// then by item — not a comparison sort.
func sortEdges(edges []Edge) {
	tmp := make([]Edge, len(edges))
	scatterEdges(tmp, edges, func(e *Edge) int32 { return e.Consumer })
	scatterEdges(edges, tmp, func(e *Edge) int32 { return e.Item })
}

// scatterEdges copies src to dst in ascending order of key, keeping the
// order of src among equal keys.
func scatterEdges(dst, src []Edge, key func(*Edge) int32) {
	size := 1
	for i := range src {
		size = max(size, int(key(&src[i]))+2)
	}
	next := make([]int32, size) // next[k+1] counts key k, then next[k] is where the next edge with key k goes
	for i := range src {
		next[key(&src[i])+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	for i := range src {
		k := key(&src[i])
		dst[next[k]] = src[i]
		next[k]++
	}
}
