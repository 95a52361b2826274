package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"text/tabwriter"
)

// collectCmd combines single-run report files into one set file.
func collectCmd(args []string) error {
	if len(args) < 2 {
		return errors.New("usage: bench collect OUT.json REPORT.json...")
	}
	var set []report
	for _, path := range args[1:] {
		var r report
		if err := readJSON(path, &r); err != nil {
			return err
		}
		set = append(set, r)
	}
	return writeJSON(args[0], set)
}

func compareCmd(args []string) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: bench compare [-spec BENCHMARK.json] A.json B.json")
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	var base, cur []report
	if err := readJSON(fs.Arg(0), &base); err != nil {
		return err
	}
	if err := readJSON(fs.Arg(1), &cur); err != nil {
		return err
	}
	regressed, _, err := compareSets(os.Stdout, sp, base, cur)
	if err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed past their bound", regressed)
	}
	return nil
}

// values returns the metric's value in each run of the workload, and
// their quartile spread as a share of the median. With a single run the
// spread is that of the samples within the run.
func values(set []report, workload, name string, trace bool) (v []float64, spread float64) {
	var only metric
	for _, r := range set {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			v, only = append(v, m.Value), m
		}
	}
	switch {
	case len(v) == 0:
		return nil, 0
	case len(v) == 1:
		spread = only.Q3 - only.Q1
	default:
		q := quartiles(v)
		spread = q[2] - q[0]
	}
	if m := median(v); m != 0 {
		spread /= m
	}
	return v, spread
}

// compareSets prints, per workload and metric, the medians of both sets
// and their ratio, with a verdict for each end-to-end metric: regressed
// when cur is worse than base by more than the bound, unresolved when it
// is not but either set's quartile spread exceeds the bound, else better
// or unchanged. It refuses sets from different machines.
func compareSets(out io.Writer, sp *spec, base, cur []report) (regressed, unresolved int, err error) {
	if len(base) == 0 || len(cur) == 0 {
		return 0, 0, errors.New("empty report set")
	}
	for _, set := range [][]report{base, cur} {
		for _, r := range set {
			if r.Fingerprint != base[0].Fingerprint {
				return 0, 0, fmt.Errorf("machine fingerprints differ: %+v vs %+v", base[0].Fingerprint, r.Fingerprint)
			}
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase (median)\tnew (median)\tnew/base\tspread base/new\tbound\tverdict")
	row := func(w string, m metricSpec, trace bool) {
		b, bs := values(base, w, m.Name, trace)
		c, cs := values(cur, w, m.Name, trace)
		if len(b) == 0 || len(c) == 0 {
			return
		}
		bm, cm := median(b), median(c)
		ratio := "-"
		if bm != 0 {
			ratio = fmt.Sprintf("%.3f of %.6g %s", cm/bm, bm, m.Unit)
		}
		verdict, bound := "", ""
		if !trace {
			worse := cm - bm
			if m.Better == "higher" {
				worse = -worse
			}
			if bm != 0 {
				worse /= bm
			}
			switch {
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case bs > m.Bound || cs > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse < -m.Bound:
				verdict = "better"
			default:
				verdict = "unchanged"
			}
			bound = fmt.Sprint(m.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g (n=%d)\t%.6g (n=%d)\t%s\t%.3f/%.3f\t%s\t%s\n",
			w, m.Name, bm, len(b), cm, len(c), ratio, bs, cs, bound, verdict)
	}
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			row(w.Name, m, false)
		}
		for _, m := range sp.PerLayer {
			row(w.Name, m, true)
		}
	}
	return regressed, unresolved, tw.Flush()
}

// agreeCmd is the self-agreement gate: two interleaved sets of runs of
// this same build must agree within the benchmark's own bounds.
func agreeCmd(args []string) error {
	fs := flag.NewFlagSet("bench agree", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition with the bounds")
	runs := fs.Int("runs", 5, "runs per workload per set, each with another seed")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds per run")
	size := fs.String("size", "full", "full | tiny")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for the two set files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2][]report
	for seed := 1; seed <= *runs; seed++ {
		for _, w := range sp.Workloads {
			for i := range sets {
				// One process per run, so that peak_rss_mb is the run's own.
				cfg := runConfig{workload: w.Name, size: *size, outDir: filepath.Join(*outDir, "agree")}
				cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(*seconds), "-size", *size, "-out", cfg.outDir)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				var r report
				if err := readJSON(reportPath(cfg), &r); err != nil {
					return err
				}
				sets[i] = append(sets[i], r)
			}
		}
	}
	for i, name := range []string{"agree.A.json", "agree.B.json"} {
		if err := writeJSON(filepath.Join(*outDir, name), sets[i]); err != nil {
			return err
		}
	}
	regressed, unresolved, err := compareSets(os.Stdout, sp, sets[0], sets[1])
	if err != nil {
		return err
	}
	// The sets ran the same seeds in the same order, so the exact metrics
	// must be identical run for run.
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, name := range exactMetrics {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				return fmt.Errorf("%s seed %d: %s is %v in one set and %v in the other",
					a.Workload, a.Seed, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
	if regressed+unresolved > 0 {
		return fmt.Errorf("the two sets disagree: %d metrics regressed, %d unresolved", regressed, unresolved)
	}
	return nil
}
