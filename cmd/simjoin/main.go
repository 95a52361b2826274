// Command simjoin runs the MapReduce prefix-filtered similarity join on
// a generated corpus, reporting the candidate-edge statistics of the
// paper's Section 5.1 (pruning power, join size, shuffle volume) and
// optionally writing the resulting candidate graph.
//
// Usage:
//
//	simjoin -dataset flickr-small -sigma 4
//	simjoin -dataset yahoo-answers -sigma 0.2 -scale 0.2 -o graph.txt
//	simjoin -dataset flickr-small -sigma 4 -dist-workers 2
//
// Distributed mode mirrors cmd/bmatch: -dist-workers N re-executes this
// binary N times in worker mode (each regenerates the same deterministic
// corpus from the flags and serves the verification reduces);
// -dist-connect host:port runs one worker against a separately launched
// coordinator.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliio"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mrcli"
	"repro/internal/simjoin"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simjoin:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		name  = flag.String("dataset", "flickr-small", "flickr-small | flickr-large | yahoo-answers")
		sigma = flag.Float64("sigma", 4, "similarity threshold (finite, > 0)")
		alpha = flag.Float64("alpha", 1, "capacity multiplier applied when writing the graph")
		scale = flag.Float64("scale", 1, "corpus size scale factor in (0,1]")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("o", "", "write the candidate graph (with capacities) to this file")
	)
	eng := mrcli.Register(flag.CommandLine, 16)
	flag.Parse()

	stopProfiles, err := eng.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProfiles(&err)

	c, err := dataset.ByName(*name, *scale, *seed)
	if err != nil {
		return err
	}

	if eng.WorkerMode() {
		// The corpus regenerated above is deterministic given the flags,
		// so the verification reduces close over the exact vectors the
		// coordinator probes with.
		simjoin.RegisterDistJobs(c.Items, c.Consumers, *sigma)
		return eng.ServeWorker(context.Background())
	}

	mr, closeCluster, err := eng.Start(
		"-dataset", *name,
		"-sigma", fmt.Sprint(*sigma),
		"-scale", fmt.Sprint(*scale),
		"-seed", fmt.Sprint(*seed),
	)
	if err != nil {
		return err
	}
	defer closeCluster(&err)

	res, err := simjoin.Join(context.Background(), c.Items, c.Consumers, *sigma, simjoin.Options{MR: mr})
	if err != nil {
		return err
	}

	w := cliio.Stdout()
	defer cliio.CloseInto(w, &err)

	printJoin(w, c, *sigma, res)
	eng.PrintCost(w, res.Shuffle)

	if *out != "" {
		g := simjoin.ToGraph(res.Edges, c.NumItems(), c.NumConsumers())
		if err := c.ApplyCapacities(g, *alpha); err != nil {
			return err
		}
		f, err := cliio.Create(*out)
		if err != nil {
			return err
		}
		if err := graph.Write(f, g); err != nil {
			//lint:allow errdrop — the write error being returned dominates; Close here only releases the fd on the failure path
			f.Close()
			return err
		}
		// The checked close is the write barrier: only a clean close
		// proves the graph reached the file (a full disk exits nonzero
		// here instead of reporting "wrote" below).
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote:          %s\n", *out)
	}
	return nil
}

// printJoin writes the join's statistics: sizes, pruning power, shuffle
// volume.
func printJoin(w io.Writer, c *dataset.Corpus, sigma float64, res *simjoin.Result) {
	pairs := int64(c.NumItems()) * int64(c.NumConsumers())
	fmt.Fprintf(w, "dataset:        %s (|T|=%d |C|=%d, %d possible pairs)\n",
		c.Name, c.NumItems(), c.NumConsumers(), pairs)
	fmt.Fprintf(w, "sigma:          %g\n", sigma)
	fmt.Fprintf(w, "MR rounds:      %d\n", res.Rounds)
	fmt.Fprintf(w, "index postings: %d\n", res.PostingEntries)
	fmt.Fprintf(w, "candidates:     %d (%.4f%% of all pairs)\n",
		res.Candidates, 100*float64(res.Candidates)/float64(pairs))
	fmt.Fprintf(w, "edges >= sigma: %d (%.1f%% of candidates survive verification)\n",
		len(res.Edges), 100*float64(len(res.Edges))/float64(max(res.Candidates, 1)))
	fmt.Fprintf(w, "shuffle:        %d records\n", res.Shuffle.ShuffleRecords)
	if res.Shuffle.SpilledRecords > 0 {
		fmt.Fprintf(w, "spilled:        %d records in %d runs\n",
			res.Shuffle.SpilledRecords, res.Shuffle.SpillRuns)
	}
}
