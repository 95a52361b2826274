// Command bench is the repository's end-to-end, layer-attributed
// benchmark. One process runs one workload:
//
//	bench -workload <name> [-seed N] [-seconds S] [-trace 0|1] [-size full|tiny]
//	bench collect SET.json REPORT.json...
//	bench compare A.json B.json
//	bench agree [-runs N] [-seconds S]
//
// See README.md; bench/run.sh builds and runs it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "collect":
			return collectCmd(args[1:])
		case "compare":
			return compareCmd(args[1:])
		case "agree":
			return agreeCmd(args[1:])
		}
	}
	return runCmd(args)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see README.md)")
	fs.Int64Var(&cfg.seed, "seed", 1, "relabels the fixed corpus: term ids (pipe-*) or node ids (match-*); does not redraw it")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "how long to run timed jobs")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics")
	fs.StringVar(&cfg.size, "size", "full", "full | tiny (smoke test sizes)")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for reports, span files and spill files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = *trace != 0
	rep, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	if err := writeJSON(reportPath(cfg), rep); err != nil {
		return err
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	fmt.Println(rep.contractLine())
	if !rep.Correct {
		return fmt.Errorf("%d of %d jobs failed", rep.Failed, rep.Attempted)
	}
	return nil
}

// reportPath is where a run's full report goes.
func reportPath(cfg runConfig) string {
	name := cfg.workload + ".json"
	if cfg.trace {
		name = cfg.workload + ".layers.json"
	}
	return filepath.Join(cfg.outDir, name)
}
