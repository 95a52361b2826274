package socialmatch

import (
	"context"
	"fmt"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/simjoin"
	"repro/internal/vector"
)

// Re-exported building blocks, so that callers outside this module's
// internals can assemble inputs.
type (
	// Graph is the weighted bipartite item-consumer graph with node
	// capacities.
	Graph = graph.Bipartite
	// NodeID identifies a node of the Graph.
	NodeID = graph.NodeID
	// Vector is a sparse term vector describing an item or a consumer.
	Vector = vector.Sparse
	// VectorEntry is one (term, weight) component of a Vector.
	VectorEntry = vector.Entry
	// TermID identifies a term in a Vector.
	TermID = vector.TermID
	// Matching is a computed b-matching.
	Matching = core.Matching
	// Result couples a Matching with its computation cost.
	Result = core.Result
)

// NewGraph creates an empty bipartite graph with the given part sizes.
func NewGraph(numItems, numConsumers int) *Graph {
	return graph.NewBipartite(numItems, numConsumers)
}

// NewVector builds a sparse vector from entries.
func NewVector(entries []VectorEntry) Vector { return vector.FromEntries(entries) }

// Algorithm selects a matching algorithm.
type Algorithm string

const (
	// GreedyMRAlgorithm is the MapReduce greedy (Algorithm 3):
	// 1/2-approximation, feasible at every round, any-time stoppable.
	GreedyMRAlgorithm Algorithm = "greedymr"
	// StackMRAlgorithm is the primal-dual stack algorithm (Algorithm
	// 2): 1/(6+ε)-approximation, ≤(1+ε) capacity violations,
	// poly-logarithmic rounds.
	StackMRAlgorithm Algorithm = "stackmr"
	// StackGreedyMRAlgorithm is StackMR with greedy marking.
	StackGreedyMRAlgorithm Algorithm = "stackgreedymr"
	// StackMRStrictAlgorithm is Algorithm 1: the stack algorithm that
	// never violates capacities, at the cost of extra rounds for the
	// overflow-resolution phase.
	StackMRStrictAlgorithm Algorithm = "stackmrstrict"
	// GreedyAlgorithm is the centralized greedy reference.
	GreedyAlgorithm Algorithm = "greedy"
	// StackSequentialAlgorithm is the centralized stack reference.
	StackSequentialAlgorithm Algorithm = "stackseq"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{GreedyMRAlgorithm, StackMRAlgorithm, StackGreedyMRAlgorithm,
		StackMRStrictAlgorithm, GreedyAlgorithm, StackSequentialAlgorithm}
}

// ShuffleKind selects the MapReduce shuffle backend of every job.
type ShuffleKind = mapreduce.ShuffleKind

const (
	// ShuffleMemory groups all intermediate pairs in memory (default;
	// fastest while the job fits in RAM).
	ShuffleMemory = mapreduce.ShuffleMemory
	// ShuffleSpill bounds shuffle memory: past the budget, sorted runs
	// spill to disk and key groups are merge-streamed to reducers, so
	// matchings over graphs far larger than RAM still complete.
	ShuffleSpill = mapreduce.ShuffleSpill
	// ShuffleDist shards reduce partitions across the worker processes
	// of Options.Dist (see StartDistCluster): buckets stream to each
	// partition's owner over TCP and workers group-sort and reduce
	// locally. The matching output is byte-identical to the local
	// backends for the same seed and partition count.
	ShuffleDist = mapreduce.ShuffleDist
)

// DistCluster is a connected set of distributed worker processes (see
// mapreduce.StartDistCluster); pass one in Options.Dist together with
// Algorithm-independent ShuffleDist. Worker processes serve via
// ServeDistWorker after registering the jobs with core.RegisterDistJobs.
type DistCluster = mapreduce.DistCluster

// DistClusterOptions configures StartDistCluster.
type DistClusterOptions = mapreduce.DistClusterOptions

// StartDistCluster listens for n workers (optionally spawning them) and
// returns the connected cluster. The caller owns it and must Close it.
func StartDistCluster(n int, opts DistClusterOptions) (*DistCluster, error) {
	return mapreduce.StartDistCluster(n, opts)
}

// Options configures Match.
type Options struct {
	// Algorithm defaults to GreedyMRAlgorithm.
	Algorithm Algorithm
	// Eps is the stack slackness parameter ε (default 1). A negative,
	// NaN or infinite ε is refused.
	Eps float64
	// Seed drives the randomized algorithms (default 1).
	Seed int64
	// Reducers is the partition count of each MapReduce job, and so the
	// parallelism of its map and reduce tasks (default GOMAXPROCS).
	// Mappers is ignored, as mapreduce.Config.Mappers is: every job runs
	// one map task per input partition.
	Mappers  int
	Reducers int
	// Shuffle selects the shuffle backend (default ShuffleMemory). The
	// matching output is identical on either backend.
	Shuffle ShuffleKind
	// ShuffleMemoryBudget caps the intermediate records the spilling
	// backend buffers in memory per job (default 1<<20). Ignored by
	// the memory backend.
	ShuffleMemoryBudget int
	// ShuffleTempDir is the directory for spill files (default
	// os.TempDir()).
	ShuffleTempDir string
	// Dist is the worker cluster jobs shard across when Shuffle is
	// ShuffleDist. Required for (and only meaningful with) that backend.
	Dist *DistCluster
}

func (o Options) mr() mapreduce.Config {
	return mapreduce.Config{
		Reducers: o.Reducers,
		Shuffle: mapreduce.ShuffleConfig{
			Backend:      o.Shuffle,
			MemoryBudget: o.ShuffleMemoryBudget,
			TempDir:      o.ShuffleTempDir,
		},
		Dist: o.Dist,
	}
}

// Match computes a b-matching of g with the selected algorithm. The
// graph's capacities must have been set; fractional capacities are
// rounded up.
func Match(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	if opts.Algorithm == "" {
		opts.Algorithm = GreedyMRAlgorithm
	}
	if err := core.CheckEps(opts.Eps); err != nil {
		return nil, err
	}
	if opts.Eps == 0 {
		opts.Eps = 1
	}
	switch opts.Algorithm {
	case GreedyMRAlgorithm:
		return core.GreedyMR(ctx, g, core.GreedyMROptions{MR: opts.mr()})
	case StackMRAlgorithm:
		return core.StackMR(ctx, g, core.StackOptions{
			MR: opts.mr(), Eps: opts.Eps, Seed: opts.Seed,
		})
	case StackGreedyMRAlgorithm:
		return core.StackGreedyMR(ctx, g, core.StackOptions{
			MR: opts.mr(), Eps: opts.Eps, Seed: opts.Seed,
		})
	case StackMRStrictAlgorithm:
		return core.StackMRStrict(ctx, g, core.StackOptions{
			MR: opts.mr(), Eps: opts.Eps, Seed: opts.Seed,
		})
	case GreedyAlgorithm:
		return core.Greedy(g), nil
	case StackSequentialAlgorithm:
		return core.StackSequential(g, opts.Eps), nil
	default:
		return nil, fmt.Errorf("socialmatch: unknown algorithm %q", opts.Algorithm)
	}
}

// Assignment is one delivered item in a Report.
type Assignment struct {
	// Item and Consumer are indexes into the pipeline inputs.
	Item     int
	Consumer int
	// Similarity is the edge weight.
	Similarity float64
}

// Report is the outcome of a full Pipeline run.
type Report struct {
	// Assignments lists the matched item-consumer pairs.
	Assignments []Assignment
	// Value is the total matched similarity.
	Value float64
	// CandidateEdges is the number of edges the similarity join kept.
	CandidateEdges int
	// JoinRounds and MatchRounds count MapReduce jobs per phase.
	JoinRounds  int
	MatchRounds int
	// Violation is the average relative capacity violation ε′ (zero
	// for the feasible algorithms).
	Violation float64
}

// Pipeline is the end-to-end system of the paper: similarity join to
// build candidate edges (Section 5.1), capacity assignment (Section 4),
// and b-matching (Section 5.2-5.4).
type Pipeline struct {
	// Sigma is the similarity threshold for candidate edges (must be
	// finite and positive).
	Sigma float64
	// Alpha scales consumer capacities b(u) = α·activity(u)
	// (default 1).
	Alpha float64
	// Quality holds optional per-item quality scores; when nil, items
	// share the bandwidth uniformly, otherwise proportionally
	// (Section 4).
	Quality []float64
	// Match configures the matching phase.
	Match Options
}

// Run executes the pipeline on item and consumer term vectors, with
// activity the per-consumer activity proxy n(u).
func (p Pipeline) Run(ctx context.Context, items, consumers []Vector, activity []float64) (*Report, error) {
	if p.Alpha == 0 {
		p.Alpha = 1
	}
	jr, err := simjoin.Join(ctx, items, consumers, p.Sigma, simjoin.Options{MR: p.Match.mr()})
	if err != nil {
		return nil, fmt.Errorf("socialmatch: join: %w", err)
	}
	g := simjoin.ToGraph(jr.Edges, len(items), len(consumers))
	bandwidth, err := capacity.ConsumerActivity(g, activity, p.Alpha)
	if err != nil {
		return nil, fmt.Errorf("socialmatch: capacities: %w", err)
	}
	if p.Quality != nil {
		err = capacity.QualityProportional(g, p.Quality, bandwidth)
	} else {
		err = capacity.UniformItems(g, bandwidth)
	}
	if err != nil {
		return nil, fmt.Errorf("socialmatch: capacities: %w", err)
	}
	mres, err := Match(ctx, g, p.Match)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Value:          mres.Matching.Value(),
		CandidateEdges: g.NumEdges(),
		JoinRounds:     jr.Rounds,
		MatchRounds:    mres.Rounds,
		Violation:      mres.Matching.Violation(),
	}
	for _, e := range mres.Matching.Edges() {
		rep.Assignments = append(rep.Assignments, Assignment{
			Item:       int(e.Item),
			Consumer:   int(e.Consumer) - g.NumItems(),
			Similarity: e.Weight,
		})
	}
	return rep, nil
}
