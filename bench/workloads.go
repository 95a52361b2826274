package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	socialmatch "repro"
	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/simjoin"
	"repro/internal/vector"
)

// Fixed load shape: identical task counts on any machine.
const (
	mappers  = 4
	reducers = 4
	// datasetSeed draws every corpus. --seed does not redraw it: eight
	// Flickr draws of one size differ by ±25 % in shuffled records (the
	// power-law activity tail decides the round count), which no
	// regression bound survives. --seed instead relabels the one corpus,
	// see relabelTerms and relabelNodes.
	datasetSeed = 1
	// algoSeed seeds StackMR's coin flips. It is a parameter of the
	// program, not an input: fixed, so that rounds, value and violation
	// are the same for every --seed and can be gated exactly.
	algoSeed    = 1
	distWorkers = 2
)

// workload is one row of the table in README.md. The sizes are
// constants, never scaled to the machine.
type workload struct {
	name   string
	corpus string // "flickr" or "answers": vectors → Pipeline.Run; "zipf": graph → Match
	// items × consumers at -size full and -size tiny.
	full, tiny [2]int
	sigma      float64
	algo       socialmatch.Algorithm
	shuffle    socialmatch.ShuffleKind
}

var workloads = []workload{
	{name: "pipe-dense-greedymr", corpus: "flickr", full: [2]int{3380, 631}, tiny: [2]int{420, 80},
		sigma: 4, algo: socialmatch.GreedyMRAlgorithm, shuffle: socialmatch.ShuffleMemory},
	{name: "pipe-sparse-stackmr", corpus: "answers", full: [2]int{14560, 3080}, tiny: [2]int{780, 165},
		sigma: 0.2, algo: socialmatch.StackMRAlgorithm, shuffle: socialmatch.ShuffleMemory},
	{name: "match-zipf-spill", corpus: "zipf", full: [2]int{300000, 30000}, tiny: [2]int{3000, 300},
		algo: socialmatch.GreedyMRAlgorithm, shuffle: socialmatch.ShuffleSpill},
	{name: "match-zipf-dist2", corpus: "zipf", full: [2]int{300000, 30000}, tiny: [2]int{3000, 300},
		algo: socialmatch.GreedyMRAlgorithm, shuffle: socialmatch.ShuffleDist},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) pipeline() bool { return w.corpus != "zipf" }

// slack is what Matching.Validate tolerates: StackMR may exceed a
// capacity by the factor 1+ε, ε = 1.
func (w workload) slack() float64 {
	if w.algo == socialmatch.StackMRAlgorithm {
		return 2
	}
	return 1
}

// instance is one generated input with its reference solution. The
// program under test sees only items/consumers/activity or graph.
type instance struct {
	w workload
	// Pipeline inputs.
	items, consumers []vector.Sparse
	activity         []float64
	// graph is the Match input of a zipf workload, and for a pipeline
	// workload the reference graph (same edges and capacities as the
	// pipeline builds) that Greedy and validation run on.
	graph *graph.Bipartite
	opts  socialmatch.Options
	// greedyValue is the centralized core.Greedy value on graph.
	greedyValue float64
	// Set-up layer timings.
	genTime, greedyTime, clusterTime time.Duration
	close                            func()
}

// setup generates the instance of w for seed. spillDir is a directory
// the benchmark owns; the spill workload writes its runs there.
func setup(w workload, size string, seed int64, spillDir string) (*instance, error) {
	dims := w.full
	if size == "tiny" {
		dims = w.tiny
	}
	rng := rand.New(rand.NewSource(seed))
	in := &instance{w: w, close: func() {}}
	in.opts = socialmatch.Options{
		Algorithm: w.algo, Eps: 1, Seed: algoSeed,
		Mappers: mappers, Reducers: reducers, Shuffle: w.shuffle,
	}

	start := time.Now()
	if w.pipeline() {
		c := corpus(w.corpus, dims)
		in.items, in.consumers = relabelTerms(c.Items, c.Consumers, rng)
		in.activity = c.Activity
		ref := &dataset.Corpus{Items: in.items, Consumers: in.consumers}
		in.graph = ref.BuildGraph(w.sigma)
		bandwidth, err := capacity.ConsumerActivity(in.graph, in.activity, 1)
		if err != nil {
			return nil, err
		}
		if err := capacity.UniformItems(in.graph, bandwidth); err != nil {
			return nil, err
		}
	} else {
		// cmd/datagen's synthetic parameters.
		in.graph = relabelNodes(dataset.Synthetic(dataset.SyntheticConfig{
			NumItems: dims[0], NumConsumers: dims[1], MeanDegree: 10,
			DegreeAlpha: 1.4, WeightScale: 1, CapacityAlpha: 1.2,
			CapacityMax: 200, Seed: datasetSeed,
		}), rng)
	}
	in.genTime = time.Since(start)

	start = time.Now()
	in.greedyValue = core.Greedy(in.graph).Matching.Value()
	in.greedyTime = time.Since(start)

	switch w.shuffle {
	case socialmatch.ShuffleSpill:
		// Every round overflows a budget of |E|/5 records.
		in.opts.ShuffleMemoryBudget = in.graph.NumEdges() / 5
		in.opts.ShuffleTempDir = spillDir
	case socialmatch.ShuffleDist:
		start = time.Now()
		core.RegisterDistJobs(in.graph)
		cluster, stop, err := startCluster(distWorkers)
		if err != nil {
			return nil, err
		}
		in.opts.Dist = cluster
		in.close = stop
		in.clusterTime = time.Since(start)
	}
	return in, nil
}

func corpus(kind string, dims [2]int) *dataset.Corpus {
	if kind == "flickr" {
		cfg := dataset.FlickrSmallConfig()
		cfg.NumItems, cfg.NumConsumers, cfg.Seed = dims[0], dims[1], datasetSeed
		return dataset.Flickr(kind, cfg)
	}
	cfg := dataset.AnswersScaledConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = dims[0], dims[1], datasetSeed
	return dataset.Answers(kind, cfg)
}

// relabelTerms returns both collections with the term ids permuted: the
// same documents over a renamed vocabulary, so every similarity and the
// candidate graph stay what they were while postings and candidates hash
// to other partitions of the join. (Renaming the documents instead would
// change how GreedyMR breaks ties between the corpus's many equal
// weights, and with them the round count.)
func relabelTerms(items, consumers []vector.Sparse, rng *rand.Rand) (_, _ []vector.Sparse) {
	vocab := 0
	for _, docs := range [][]vector.Sparse{items, consumers} {
		for _, d := range docs {
			if n := d.Len(); n > 0 {
				vocab = max(vocab, int(d.At(n-1).Term)+1) // entries are sorted by term
			}
		}
	}
	perm := rng.Perm(vocab)
	rename := func(docs []vector.Sparse) []vector.Sparse {
		out := make([]vector.Sparse, len(docs))
		for i, d := range docs {
			entries := make([]vector.Entry, d.Len())
			for j, e := range d.Entries() {
				entries[j] = vector.Entry{Term: vector.TermID(perm[e.Term]), Weight: e.Weight}
			}
			out[i] = vector.FromEntries(entries)
		}
		return out
	}
	return rename(items), rename(consumers)
}

// relabelNodes returns g with item and consumer ids permuted: an
// isomorphic graph whose nodes hash to other partitions. The synthetic
// weights are distinct, so the matching is the same one renamed.
func relabelNodes(g *graph.Bipartite, rng *rand.Rand) *graph.Bipartite {
	pi, pc := rng.Perm(g.NumItems()), rng.Perm(g.NumConsumers())
	node := func(v graph.NodeID) graph.NodeID {
		if g.SideOf(v) == graph.ItemSide {
			return g.ItemID(pi[int(v)])
		}
		return g.ConsumerID(pc[int(v)-g.NumItems()])
	}
	out := graph.NewBipartite(g.NumItems(), g.NumConsumers())
	for _, e := range g.Edges() {
		out.AddEdge(node(e.Item), node(e.Consumer), e.Weight)
	}
	for v := 0; v < g.NumNodes(); v++ {
		out.SetCapacity(node(graph.NodeID(v)), g.Capacity(graph.NodeID(v)))
	}
	return out
}

// startCluster starts n in-process workers over loopback TCP with the
// CLI defaults (500 ms heartbeat, 10 s reconnect grace, checkpoint
// every round; no speculation, journal or compression). stop closes the
// cluster and returns once every worker goroutine has ended.
func startCluster(n int) (*mapreduce.DistCluster, func(), error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	cluster, err := mapreduce.StartDistCluster(n, mapreduce.DistClusterOptions{
		Timeout:        30 * time.Second,
		ReconnectGrace: 10 * time.Second,
		OnListen: func(addr string) {
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// The coordinator reports a failed session as a job error.
					_ = mapreduce.ServeDistWorker(ctx, addr)
				}()
			}
		},
	})
	if err != nil {
		cancel()
		wg.Wait()
		return nil, nil, fmt.Errorf("starting dist cluster: %w", err)
	}
	return cluster, func() {
		cluster.Close()
		cancel()
		wg.Wait()
	}, nil
}

// outcome is what one job returned, reduced to what is checked and
// reported.
type outcome struct {
	edges      int // candidate edges of the graph the job matched on
	joinRounds int
	rounds     int // MapReduce jobs of the matching phase
	matched    int
	value      float64
	violation  float64
	// join is set by stage-by-stage (traced) jobs only; match by those and
	// by untraced match-* jobs. Pipeline.Run exposes neither.
	join  *simjoin.Result
	match *core.Result
}

// run executes one untraced job: the public entry point, nothing else.
func (in *instance) run(ctx context.Context) (*outcome, error) {
	if !in.w.pipeline() {
		res, err := socialmatch.Match(ctx, in.graph, in.opts)
		if err != nil {
			return nil, err
		}
		return in.matchOutcome(res)
	}
	p := socialmatch.Pipeline{Sigma: in.w.sigma, Alpha: 1, Match: in.opts}
	rep, err := p.Run(ctx, in.items, in.consumers, in.activity)
	if err != nil {
		return nil, err
	}
	deg := make([]int, in.graph.NumNodes())
	for _, a := range rep.Assignments {
		deg[in.graph.ItemID(a.Item)]++
		deg[in.graph.ConsumerID(a.Consumer)]++
	}
	for v, d := range deg {
		if limit := in.w.slack() * float64(in.graph.IntCapacity(graph.NodeID(v))); float64(d) > limit {
			return nil, fmt.Errorf("node %d has matched degree %d > %.0f", v, d, limit)
		}
	}
	return &outcome{
		edges: rep.CandidateEdges, joinRounds: rep.JoinRounds, rounds: rep.MatchRounds,
		matched: len(rep.Assignments), value: rep.Value, violation: rep.Violation,
	}, nil
}

func (in *instance) matchOutcome(res *core.Result) (*outcome, error) {
	if err := res.Matching.Validate(in.w.slack()); err != nil {
		return nil, err
	}
	return &outcome{
		edges: res.Matching.Graph().NumEdges(), rounds: res.Rounds,
		matched: res.Matching.Size(), value: res.Matching.Value(),
		violation: res.Matching.Violation(), match: res,
	}, nil
}

// runTraced executes the same job stage by stage, with a span around
// each call into a layer, under a root span of job id job.
func (in *instance) runTraced(ctx context.Context, tr *tracer, job int) (*outcome, error) {
	root := tr.start("job", 0, job)
	defer tr.end(root)
	g := in.graph
	var jr *simjoin.Result
	if in.w.pipeline() {
		mr := mapreduce.Config{Mappers: mappers, Reducers: reducers}
		s := tr.start("simjoin.join", root, job)
		var err error
		jr, err = simjoin.Join(ctx, in.items, in.consumers, in.w.sigma, simjoin.Options{MR: mr})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		tr.phases(s, job, jr.Shuffle)

		s = tr.start("graph.build", root, job)
		g = simjoin.ToGraph(jr.Edges, len(in.items), len(in.consumers))
		tr.end(s)

		s = tr.start("capacity.assign", root, job)
		bandwidth, err := capacity.ConsumerActivity(g, in.activity, 1)
		if err == nil {
			err = capacity.UniformItems(g, bandwidth)
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s := tr.start("core.match", root, job)
	res, err := socialmatch.Match(ctx, g, in.opts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	for i, rs := range res.RoundStats {
		tr.phases(tr.derive(fmt.Sprintf("mapreduce.job[%d]", i), s, job,
			rs.MapWall+rs.ShuffleWall+rs.ReduceWall), job, rs)
	}
	out, err := in.matchOutcome(res)
	if err != nil {
		return nil, err
	}
	if jr != nil {
		out.join, out.joinRounds = jr, jr.Rounds
	}
	return out, nil
}
