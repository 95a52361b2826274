package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func tinyRun(t *testing.T, workload, dir string, trace bool) *report {
	t.Helper()
	rep, err := runWorkload(context.Background(), runConfig{
		workload: workload, seed: 7, seconds: 0, trace: trace, size: "tiny", outDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("%s: failed jobs: %v", workload, rep.Failures)
	}
	return rep
}

func checkEmitted(t *testing.T, rep *report, want []metricSpec) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", rep.Workload, rep.Trace, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !nameRE.MatchString(m.Name):
			t.Errorf("metric name %q", m.Name)
		case !ok:
			t.Errorf("%s trace=%v: metric %s not emitted", rep.Workload, rep.Trace, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rep.Workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestTinyWorkloads runs every workload at -size tiny: twice untraced,
// once traced, loopback workers and spill directory included.
func TestTinyWorkloads(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	goroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, w := range sp.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		first := tinyRun(t, w.Name, dir, false)
		checkEmitted(t, first, sp.EndToEnd)
		for _, m := range sp.EndToEnd {
			if first.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
		}
		second := tinyRun(t, w.Name, dir, false)
		for _, name := range exactMetrics {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s %v then %v", w.Name, name, a, b)
			}
		}

		layers := tinyRun(t, w.Name, dir, true)
		checkEmitted(t, layers, sp.PerLayer)
		// Each workload bypasses the layers the others exercise.
		uses := map[string]bool{
			"simjoin.": strings.HasPrefix(w.Name, "pipe-"),
			"extsort.": w.Name == "match-zipf-spill",
			"remote.":  w.Name == "match-zipf-dist2",
		}
		for name, m := range layers.Metrics {
			for prefix, used := range uses {
				if strings.HasPrefix(name, prefix) && !used && m.Value != 0 {
					t.Errorf("%s bypasses %s yet %s = %v", w.Name, prefix, name, m.Value)
				}
			}
		}
		if w.Name == "match-zipf-spill" && layers.Metrics["extsort.spilled_records"].Value == 0 {
			t.Error("match-zipf-spill spilled nothing")
		}
		if w.Name == "match-zipf-dist2" && layers.Metrics["remote.bytes_out"].Value == 0 {
			t.Error("match-zipf-dist2 sent nothing")
		}
		checkSelfTimes(t, filepath.Join(dir, w.Name+".trace.json"))
	}

	if left, _ := filepath.Glob(filepath.Join(dir, "spill-*")); len(left) > 0 {
		t.Errorf("spill directories left behind: %v", left)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before, %d after", goroutines, n)
	}
}

// checkSelfTimes reads a span file and checks, job by job, that the self
// times of the job's spans add up to its root span.
func checkSelfTimes(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	sum, root := map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range spans {
		if self[s.ID] < 0 {
			t.Errorf("%s: span %d %s has self time %v", path, s.ID, s.Name, self[s.ID])
		}
		sum[s.Job] += self[s.ID]
		if s.Parent == 0 {
			root[s.Job] = s.dur()
		}
	}
	if len(root) == 0 {
		t.Errorf("%s: no root span", path)
	}
	for job, d := range root {
		if diff := (sum[job] - d).Abs(); float64(diff) > 0.01*float64(d) {
			t.Errorf("%s: job %d self times sum to %v, root span is %v", path, job, sum[job], d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
	got := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if want := [3]float64{1.75, 3.5, 5.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{
		Workloads: []struct{ Name, Why string }{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "steady_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "slower_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "noisy_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
		},
	}
	set := func(steady, slower, rate float64, noisy ...float64) []report {
		var rs []report
		for _, n := range noisy {
			rs = append(rs, report{Workload: "w", Metrics: map[string]metric{
				"steady_s": single(steady, "s"), "slower_s": single(slower, "s"),
				"noisy_s": single(n, "s"), "rate": single(rate, "1/s"),
			}})
		}
		return rs
	}
	base := set(1, 1, 100, 1, 1.5, 2, 2.5)
	cur := set(1.05, 1.2, 80, 1, 1.5, 2, 2.5)
	regressed, unresolved, err := compareSets(io.Discard, sp, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if regressed != 2 || unresolved != 1 {
		t.Errorf("regressed %d, unresolved %d; want 2 (slower_s, rate) and 1 (noisy_s)", regressed, unresolved)
	}

	cur[0].Fingerprint.CPU = "another machine"
	if _, _, err := compareSets(io.Discard, sp, base, cur); err == nil {
		t.Error("compared runs of different machines")
	}
}
