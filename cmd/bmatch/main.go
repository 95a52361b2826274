// Command bmatch runs a b-matching algorithm over an edge-list graph
// file (as produced by cmd/datagen) and reports the solution quality and
// the MapReduce cost.
//
// Usage:
//
//	bmatch -in graph.txt -algo greedymr
//	bmatch -in graph.txt -algo stackmr -eps 0.5 -seed 7 -v
//	bmatch -in graph.txt -algo greedymr -dist-workers 2
//
// Algorithms: greedymr, stackmr, stackgreedymr, stackmrstrict, greedy,
// stackseq.
//
// Distributed mode: -dist-workers N shards the reduce partitions of
// every MapReduce job across N worker processes. By default the
// coordinator re-executes its own binary N times in worker mode
// (self-exec); with -dist-spawn=false it instead listens on -dist-listen
// and waits for externally launched workers, each started as
// `bmatch -dist-connect host:port -in graph.txt [-sigma σ]` with the
// same graph file. The matching output is byte-identical to the
// single-process backends for the same seed and partition count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	socialmatch "repro"
	"repro/internal/cliio"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/mrcli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bmatch:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		in      = flag.String("in", "", "input graph file (edge-list format); - or empty reads stdin")
		algo    = flag.String("algo", "greedymr", "greedymr | stackmr | stackgreedymr | stackmrstrict | greedy | stackseq")
		eps     = flag.Float64("eps", 1, "stack slackness parameter")
		seed    = flag.Int64("seed", 1, "random seed")
		sigma   = flag.Float64("sigma", 0, "drop edges below this weight before matching")
		verbose = flag.Bool("v", false, "print every matched edge")
		compare = flag.Bool("compare", false, "run every algorithm and print a comparison table")
		exact   = flag.Bool("exact", false, "with -compare: also solve exactly via min-cost flow (small graphs only)")
	)
	eng := mrcli.Register(flag.CommandLine, 18)
	flag.Parse()

	stopProfiles, err := eng.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles(&err)

	g, err := loadGraph(*in, *sigma)
	if err != nil {
		return err
	}

	if eng.WorkerMode() {
		// Same graph, same registered jobs, serve until the coordinator
		// hangs up.
		core.RegisterDistJobs(g)
		return eng.ServeWorker(context.Background())
	}

	if eng.Distributed() && (*in == "" || *in == "-") {
		return fmt.Errorf("-dist-workers needs -in to name a file (workers load the same graph)")
	}
	workerArgs := []string{"-in", *in}
	if *sigma > 0 {
		workerArgs = append(workerArgs, "-sigma", fmt.Sprint(*sigma))
	}
	mr, closeCluster, err := eng.Start(workerArgs...)
	if err != nil {
		return err
	}
	defer closeCluster(&err)
	shuffleOpts := socialmatch.Options{
		Shuffle:             mr.Shuffle.Backend,
		ShuffleMemoryBudget: mr.Shuffle.MemoryBudget,
		ShuffleTempDir:      mr.Shuffle.TempDir,
		Dist:                mr.Dist,
	}

	out := cliio.Stdout()
	defer cliio.CloseInto(out, &err)

	if *compare {
		return compareAll(out, g, *eps, *seed, *exact, shuffleOpts)
	}

	opts := shuffleOpts
	opts.Algorithm = socialmatch.Algorithm(*algo)
	opts.Eps = *eps
	opts.Seed = *seed
	res, err := socialmatch.Match(context.Background(), g, opts)
	if err != nil {
		return err
	}

	m := res.Matching
	fmt.Fprintf(out, "algorithm:        %s\n", *algo)
	fmt.Fprintf(out, "graph:            |T|=%d |C|=%d |E|=%d\n", g.NumItems(), g.NumConsumers(), g.NumEdges())
	fmt.Fprintf(out, "matching value:   %.4f\n", m.Value())
	fmt.Fprintf(out, "matched edges:    %d\n", m.Size())
	fmt.Fprintf(out, "MapReduce rounds: %d\n", res.Rounds)
	fmt.Fprintf(out, "violation eps':   %.6f (max stretch %.3f)\n", m.Violation(), m.MaxViolationFactor())
	if res.Shuffle.SpilledRecords > 0 {
		fmt.Fprintf(out, "shuffle spill:    %d records in %d runs\n",
			res.Shuffle.SpilledRecords, res.Shuffle.SpillRuns)
	}
	eng.PrintCost(out, res.Shuffle)
	if *verbose {
		for _, e := range m.Edges() {
			fmt.Fprintf(out, "match item=%d consumer=%d w=%.4f\n",
				int(e.Item), int(e.Consumer)-g.NumItems(), e.Weight)
		}
	}
	return nil
}

// loadGraph reads the graph (file or stdin) and applies the -sigma
// pre-filter — the shared preprocessing of coordinator and workers, so
// both sides hold identical graphs.
func loadGraph(in string, sigma float64) (*graph.Bipartite, error) {
	if !(sigma >= 0) || math.IsInf(sigma, 1) {
		return nil, fmt.Errorf("-sigma %v is not a finite number ≥ 0", sigma)
	}
	r := io.Reader(os.Stdin)
	if in != "" && in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	if sigma > 0 {
		g = g.FilterEdges(sigma)
	}
	return g, nil
}

// compareAll runs every algorithm on the same graph and prints one row
// per algorithm; with exact it appends the flow-based optimum and a
// value/OPT column.
func compareAll(out io.Writer, g *graph.Bipartite, eps float64, seed int64, exact bool, shuffleOpts socialmatch.Options) error {
	ctx := context.Background()
	opt := 0.0
	if exact {
		_, v, err := flow.MaxWeightBMatching(g)
		if err != nil {
			return err
		}
		opt = v
	}
	fmt.Fprintf(out, "graph: |T|=%d |C|=%d |E|=%d\n", g.NumItems(), g.NumConsumers(), g.NumEdges())
	fmt.Fprintf(out, "%-14s %12s %8s %8s %10s", "algorithm", "value", "edges", "rounds", "eps'")
	if exact {
		fmt.Fprintf(out, " %10s", "value/OPT")
	}
	fmt.Fprintln(out)
	for _, alg := range socialmatch.Algorithms() {
		opts := shuffleOpts
		opts.Algorithm = alg
		opts.Eps = eps
		opts.Seed = seed
		res, err := socialmatch.Match(ctx, g.Clone(), opts)
		if err != nil {
			return err
		}
		m := res.Matching
		fmt.Fprintf(out, "%-14s %12.2f %8d %8d %10.5f", alg, m.Value(), m.Size(), res.Rounds, m.Violation())
		if exact && opt > 0 {
			fmt.Fprintf(out, " %10.3f", m.Value()/opt)
		}
		fmt.Fprintln(out)
	}
	if exact {
		fmt.Fprintf(out, "%-14s %12.2f\n", "exact(flow)", opt)
	}
	return nil
}
