// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them as text tables (optionally teeing
// to a file). A full run at -scale 1 takes several minutes on one core;
// -quick runs a reduced version in seconds.
//
// Usage:
//
//	experiments               # everything, full scale
//	experiments -quick        # everything, reduced corpora
//	experiments -only fig4    # one experiment (table1, fig1..fig7)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cliio"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/mrcli"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		quick = flag.Bool("quick", false, "run with reduced corpora")
		scale = flag.Float64("scale", 0, "explicit corpus scale in (0,1] (overrides -quick)")
		only  = flag.String("only", "", "run a single experiment: table1, fig1..fig7")
		out   = flag.String("o", "", "also write the report to this file")
		seed  = flag.Int64("seed", 42, "random seed")
	)
	eng := mrcli.RegisterLocal(flag.CommandLine, 16)
	flag.Parse()

	cfg, err := config(*quick, *scale, *seed)
	if err != nil {
		return err
	}
	mr, err := eng.Config()
	if err != nil {
		return err
	}
	cfg.MR.Shuffle = mr.Shuffle

	// Every report line flows through checked outputs: the terminal copy
	// and the optional -o file both flush-and-close via cliio, so a full
	// disk under the tee exits nonzero instead of truncating the report.
	stdout := cliio.Stdout()
	defer cliio.CloseInto(stdout, &err)
	var w io.Writer = stdout
	if *out != "" {
		f, ferr := cliio.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer cliio.CloseInto(f, &err)
		w = io.MultiWriter(stdout, f)
	}

	ctx := context.Background()
	var runErr error
	run := func(name string, fn func() error) {
		if runErr != nil || (*only != "" && *only != name) {
			return
		}
		t0 := time.Now()
		fmt.Fprintf(w, "=== %s ===\n", name)
		if err := fn(); err != nil {
			runErr = fmt.Errorf("%s: %w", name, err)
			return
		}
		fmt.Fprintf(w, "(%s in %s)\n\n", name, time.Since(t0).Round(time.Millisecond))
	}
	// printMR reports the experiment's aggregate MapReduce engine cost in
	// the same format bmatch and simjoin use.
	printMR := func(s mapreduce.Stats) {
		if s.SpilledRecords > 0 {
			fmt.Fprintf(w, "spilled:        %d records in %d runs\n", s.SpilledRecords, s.SpillRuns)
		}
		eng.PrintCost(w, s)
	}

	run("table1", func() error {
		fmt.Fprint(w, experiments.RenderTable1(experiments.Table1(cfg)))
		return nil
	})
	for i, ds := range []string{"flickr-small", "flickr-large", "yahoo-answers"} {
		name := fmt.Sprintf("fig%d", i+1)
		ds := ds
		run(name, func() error {
			res, err := experiments.Quality(ctx, cfg, ds)
			if err != nil {
				return err
			}
			fmt.Fprint(w, res.Render())
			printMR(res.MR)
			return nil
		})
	}
	run("fig4", func() error {
		for _, ds := range []string{"flickr-large", "yahoo-answers"} {
			res, err := experiments.Violations(ctx, cfg, ds,
				[]float64{0.25, 1}, []float64{1, 2})
			if err != nil {
				return err
			}
			fmt.Fprint(w, res.Render())
			printMR(res.MR)
		}
		return nil
	})
	run("fig5", func() error {
		for _, ds := range []string{"flickr-small", "flickr-large", "yahoo-answers"} {
			res, err := experiments.Convergence(ctx, cfg, ds)
			if err != nil {
				return err
			}
			fmt.Fprint(w, res.Render())
			printMR(res.MR)
		}
		return nil
	})
	run("scalability", func() error {
		res, err := experiments.Scalability(ctx, cfg, 500, 4)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		printMR(res.MR)
		return nil
	})
	run("fig6", func() error {
		for _, c := range cfg.Datasets() {
			fmt.Fprint(w, experiments.SimilarityDistribution(c).Render())
		}
		return nil
	})
	run("fig7", func() error {
		for _, c := range cfg.Datasets() {
			for _, side := range []graph.Side{graph.ItemSide, graph.ConsumerSide} {
				res, err := experiments.CapacityDistribution(c, cfg.Alpha, side)
				if err != nil {
					return err
				}
				fmt.Fprint(w, res.Render())
			}
		}
		return nil
	})
	return runErr
}

// config is the experiment configuration the flags ask for. -scale 0,
// its default, keeps the -quick or full-scale corpora; any other value
// outside (0,1] is refused.
func config(quick bool, scale float64, seed int64) (experiments.Config, error) {
	cfg := experiments.Defaults()
	if quick {
		cfg = experiments.Quick()
	}
	if scale != 0 {
		if err := dataset.CheckScale(scale); err != nil {
			return cfg, err
		}
		cfg.Scale = scale
	}
	cfg.Seed = seed
	return cfg, nil
}
