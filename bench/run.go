package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	socialmatch "repro"
	"repro/internal/mapreduce"
	"repro/internal/simjoin"
	"repro/internal/stats"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 24
	// setupReps set-ups per run; setup_s is their median.
	setupReps = 3
	// minJobs timed jobs are run however short --seconds is.
	minJobs = 5
	// tracedJobs traced jobs, each followed by an untraced one, are run
	// however short --seconds is.
	tracedJobs = 3
)

// exactMetrics are the end-to-end metrics that do not depend on the
// clock: one seed gives one value, whatever the run.
var exactMetrics = []string{"mr_rounds", "value_vs_greedy", "capacity_factor"}

// expectJSON is the correctness fixture: what seed 1 at full size must
// produce. BENCHMARK.json may carry no key for it, so it lives here.
//
//go:embed expect.json
var expectJSON []byte

type expectation struct {
	Edges          int     `json:"edges"`
	MRRounds       int     `json:"mr_rounds"`
	Value          float64 `json:"value"`
	MatchedEdges   int     `json:"matched_edges"`
	ShuffleRecords int64   `json:"mapreduce.shuffle_records"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	outDir   string
}

// runner runs the jobs of one run and keeps the failure count.
type runner struct {
	in    *instance
	first *outcome
	// detail is the first stage-by-stage outcome, which has the Stats
	// that Pipeline.Run does not expose.
	detail    *outcome
	attempted int
	failures  []string
}

func (r *runner) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// job runs one job, traced when tr is non-nil, and checks its result: no
// error, a feasible matching (checked inside run), the reference edge
// count, no failed or retried remote operation, and the same result as
// the first repetition. It returns the wall and CPU seconds.
func (r *runner) job(ctx context.Context, in *instance, tr *tracer) (out *outcome, wall, cpu float64) {
	r.attempted++
	cpu0 := cpuSeconds()
	start := time.Now()
	var err error
	if tr != nil {
		out, err = in.runTraced(ctx, tr, r.attempted)
	} else {
		out, err = in.run(ctx)
	}
	wall, cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	switch {
	case err != nil:
		r.fail("job %d: %v", r.attempted, err)
		return nil, wall, cpu
	case out.edges != in.graph.NumEdges():
		r.fail("job %d: %d candidate edges, reference graph has %d", r.attempted, out.edges, in.graph.NumEdges())
	case out.match != nil && remoteFaults(out.match.Shuffle) != 0:
		r.fail("job %d: %d failed or retried remote operations", r.attempted, remoteFaults(out.match.Shuffle))
	case r.first == nil:
		r.first = out
	case out.rounds != r.first.rounds || out.joinRounds != r.first.joinRounds ||
		out.matched != r.first.matched || out.value != r.first.value:
		r.fail("job %d: rounds %d+%d, %d matched, value %v differ from the first repetition (%d+%d, %d, %v)",
			r.attempted, out.joinRounds, out.rounds, out.matched, out.value,
			r.first.joinRounds, r.first.rounds, r.first.matched, r.first.value)
	}
	return out, wall, cpu
}

func remoteFaults(st mapreduce.Stats) int64 {
	return st.WorkerRecoveries + st.ReseededPartitions + st.WorkerReconnects +
		st.HeartbeatTimeouts + st.SpeculativeLaunches
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload is one run: set-up, an untimed warm-up job, then jobs one
// at a time for cfg.seconds (closed loop, one client).
func runWorkload(ctx context.Context, cfg runConfig) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.size != "full" && cfg.size != "tiny" {
		return nil, fmt.Errorf("unknown size %q", cfg.size)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	spillDir := ""
	if w.shuffle == socialmatch.ShuffleSpill {
		if spillDir, err = os.MkdirTemp(cfg.outDir, "spill-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(spillDir)
	}

	procs := runtime.GOMAXPROCS(0)
	shrink := 1
	if cfg.size == "tiny" {
		shrink = 100 // a smoke test: the speeds mean nothing
	}
	cal := newCalibrator(procs, shrink)

	var in *instance
	var setupS, genS, greedyS, clusterS []float64
	before := cal.measure(1)
	for i := 0; i < setupReps; i++ {
		if in != nil {
			// One instance at a time, so that the peak RSS is a job's and not
			// that of two inputs.
			in.close()
			in = nil
		}
		start := time.Now()
		if in, err = setup(w, cfg.size, cfg.seed, spillDir); err != nil {
			return nil, err
		}
		raw := time.Since(start).Seconds()
		after := cal.measure(1)
		setupS = append(setupS, raw*speed(before, after))
		before = after
		genS = append(genS, in.genTime.Seconds())
		greedyS = append(greedyS, in.greedyTime.Seconds())
		clusterS = append(clusterS, in.clusterTime.Seconds())
	}
	defer in.close()

	rep := &report{
		Workload: w.name, Seed: cfg.seed, Size: cfg.size, Trace: cfg.trace, Seconds: cfg.seconds,
		Input: map[string]int{
			"items": in.graph.NumItems(), "consumers": in.graph.NumConsumers(), "edges": in.graph.NumEdges(),
		},
		Fingerprint: machine(),
		Metrics:     map[string]metric{},
	}
	r := &runner{in: in}
	r.job(ctx, in, nil) // warm-up: fills pools and caches, checked but not timed
	if cfg.trace {
		rep.Metrics["dataset.gen_s"] = sampled(genS, "s")
		rep.Metrics["core.greedy_seq_s"] = sampled(greedyS, "s")
		rep.Metrics["remote.cluster_start_s"] = sampled(clusterS, "s")
		tr := newTracer()
		r.traced(ctx, cfg, cal, tr, rep.Metrics)
		if err := tr.write(filepath.Join(cfg.outDir, w.name+".trace.json")); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics["setup_s"] = sampled(setupS, "s")
		speeds := r.timed(ctx, cfg, cal, rep.Metrics)
		rep.MachineSpeed = &speeds
	}

	if cfg.seed == 1 && cfg.size == "full" && r.first != nil {
		r.checkFixture()
	}
	rep.Attempted, rep.Failed, rep.Failures = r.attempted, len(r.failures), r.failures
	rep.Correct = rep.Failed == 0
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return rep, nil
}

// timed is the untraced run: every end-to-end metric comes from here.
// Jobs run one after the other until the next one would end past
// cfg.seconds, with a calibration between any two; each job's times are
// stated at the reference speed from the calibrations on either side of
// it. It returns the speeds, with which the seconds the clock read can
// be had back.
func (r *runner) timed(ctx context.Context, cfg runConfig, cal *calibrator, metrics map[string]metric) metric {
	var walls, cpus, rates, speeds []float64
	edges := float64(r.in.graph.NumEdges())
	begin := time.Now()
	before := cal.measure(len(cal.bufs))
	for wall := 0.0; len(walls) < minJobs || time.Since(begin).Seconds()+wall <= cfg.seconds; {
		var cpu float64
		_, wall, cpu = r.job(ctx, r.in, nil)
		after := cal.measure(len(cal.bufs))
		s := speed(before, after)
		walls, cpus, rates = append(walls, wall*s), append(cpus, cpu*s), append(rates, edges/(wall*s))
		speeds = append(speeds, s)
		before = after
	}
	metrics["job_wall_ref_s"] = sampled(walls, "s")
	metrics["edges_per_ref_s"] = sampled(rates, "edges/s")
	metrics["job_cpu_ref_s"] = sampled(cpus, "s")
	metrics["peak_rss_mb"] = single(peakRSSMiB(), "MiB")
	if first := r.first; first != nil { // nil when every job failed
		metrics["mr_rounds"] = single(float64(first.joinRounds+first.rounds), "count")
		metrics["value_vs_greedy"] = single(first.value/r.in.greedyValue, "ratio")
		metrics["capacity_factor"] = single(1+first.violation, "ratio")
	}
	return sampled(speeds, "ratio")
}

// traced is the traced run: traced and untraced jobs alternate, so that
// both see the same machine state and their ratio is the tracing
// overhead; then the two baseline jobs the ratios need. Every per-layer
// metric comes from here.
func (r *runner) traced(ctx context.Context, cfg runConfig, cal *calibrator, tr *tracer, metrics map[string]metric) {
	var outs []*outcome
	var tracedWalls, plainWalls, speeds []float64
	// Half of cfg.seconds: the warm-up and the baseline jobs take the rest.
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	for len(outs) < tracedJobs || time.Now().Before(deadline) {
		speeds = append(speeds, float64(calibRef)/float64(cal.measure(len(cal.bufs))))
		out, wall, _ := r.job(ctx, r.in, tr)
		if out == nil {
			return
		}
		outs, tracedWalls = append(outs, out), append(tracedWalls, wall)
		_, wall, _ = r.job(ctx, r.in, nil)
		plainWalls = append(plainWalls, wall)
	}
	r.detail = outs[0]

	// One core: the same job at GOMAXPROCS=1.
	procs := runtime.GOMAXPROCS(1)
	_, serialWall, _ := r.job(ctx, r.in, nil)
	runtime.GOMAXPROCS(procs)

	// Memory backend: the same graph without spill files or workers. Its
	// matching must equal the backend's edge for edge.
	overhead := 1.0
	if !r.in.w.pipeline() {
		mem := *r.in
		mem.opts.Shuffle, mem.opts.Dist = socialmatch.ShuffleMemory, nil
		out, memWall, _ := r.job(ctx, &mem, nil)
		if out != nil && !slices.Equal(out.match.Matching.EdgeIndexes(), outs[0].match.Matching.EdgeIndexes()) {
			r.fail("memory-backend matching differs from the %s backend's", r.in.w.shuffle)
		}
		overhead = median(plainWalls) / memWall
	}

	layerMetrics(metrics, tr.spans, outs)
	metrics["bench.machine_speed"] = sampled(speeds, "ratio")
	metrics["bench.trace_overhead_ratio"] = single(median(tracedWalls)/median(plainWalls), "ratio")
	metrics["mapreduce.parallel_speedup"] = single(serialWall/median(plainWalls), "ratio")
	metrics["mapreduce.backend_overhead_ratio"] = single(overhead, "ratio")
	metrics["mapreduce.records_per_s"] = single(
		metrics["mapreduce.shuffle_records"].Value/median(tracedWalls), "1/s")
}

// layerMetrics fills the per-layer metrics that come from the spans and
// Stats of the traced jobs: a time is the median over the jobs, a count
// is the first job's (the runner has checked that repetitions agree).
func layerMetrics(metrics map[string]metric, spans []span, outs []*outcome) {
	self := selfTimes(spans)
	roots := map[int]int{} // job id → root span id
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.Job] = s.ID
		}
	}
	// Seconds per job of each top-level span, and of its self time.
	seconds := map[string][]float64{}
	var roundS []float64
	for _, s := range spans {
		switch {
		case s.Parent != 0 && s.Parent == roots[s.Job]:
			seconds[s.Name] = append(seconds[s.Name], s.dur().Seconds())
			seconds[s.Name+".self"] = append(seconds[s.Name+".self"], self[s.ID].Seconds())
		case strings.HasPrefix(s.Name, "mapreduce.job["):
			roundS = append(roundS, s.dur().Seconds())
		}
	}
	spanMetric := func(name, spanName string) {
		if v := seconds[spanName]; len(v) > 0 {
			metrics[name] = sampled(v, "s")
		} else {
			metrics[name] = single(0, "s") // the workload bypasses this layer
		}
	}
	spanMetric("simjoin.join_s", "simjoin.join")
	spanMetric("simjoin.self_s", "simjoin.join.self")
	spanMetric("graph.build_s", "graph.build")
	spanMetric("capacity.assign_s", "capacity.assign")
	spanMetric("core.match_s", "core.match")
	spanMetric("core.self_s", "core.match.self")
	rounds := stats.Summarize(roundS)
	for name, v := range map[string]float64{"core.round_s_p50": rounds.Median, "core.round_s_p90": rounds.P90} {
		m := single(v, "s")
		m.N = rounds.Count
		metrics[name] = m
	}

	// Stats of all MapReduce jobs of one pipeline job: join plus match.
	total := func(o *outcome) mapreduce.Stats {
		st := o.match.Shuffle
		if o.join != nil {
			st.Add(&o.join.Shuffle)
		}
		return st
	}
	var mapS, shuffleS, reduceS, workerS, waitS []float64
	for _, o := range outs {
		st := total(o)
		mapS = append(mapS, st.MapWall.Seconds())
		shuffleS = append(shuffleS, st.ShuffleWall.Seconds())
		reduceS = append(reduceS, st.ReduceWall.Seconds())
		workerS = append(workerS, st.WorkerWall.Seconds())
		wait := 0.0
		if st.WorkerWall > 0 {
			wait = max(0, (st.MapWall + st.ShuffleWall + st.ReduceWall - st.WorkerWall).Seconds())
		}
		waitS = append(waitS, wait)
	}
	metrics["mapreduce.map_s"] = sampled(mapS, "s")
	metrics["mapreduce.shuffle_s"] = sampled(shuffleS, "s")
	metrics["mapreduce.reduce_s"] = sampled(reduceS, "s")
	metrics["remote.worker_wall_s"] = sampled(workerS, "s")
	metrics["remote.coord_wait_s"] = sampled(waitS, "s")

	o, st := outs[0], total(outs[0])
	count := func(name string, v int64) { metrics[name] = single(float64(v), "count") }
	// per is num ÷ den, and 0 for a layer that did nothing.
	per := func(name, unit string, num, den int64) {
		v := 0.0
		if den != 0 {
			v = float64(num) / float64(den)
		}
		metrics[name] = single(v, unit)
	}
	j := o.join
	if j == nil {
		j = &simjoin.Result{} // a match-* job has no join: all zeros
	}
	count("simjoin.rounds", int64(j.Rounds))
	count("simjoin.candidates", j.Candidates)
	count("simjoin.edges", int64(len(j.Edges)))
	per("simjoin.verify_ratio", "ratio", int64(len(j.Edges)), j.Candidates)
	count("simjoin.postings", j.PostingEntries)
	count("simjoin.shuffle_records", j.Shuffle.ShuffleRecords)
	count("core.rounds", int64(o.match.Rounds))
	count("core.phases", int64(o.match.Phases))
	count("core.matched_edges", int64(o.matched))
	metrics["core.value"] = single(o.value, "weight")
	metrics["core.capacity_violation"] = single(o.violation, "ratio")
	count("mapreduce.map_in_records", st.MapInputRecords)
	count("mapreduce.shuffle_records", st.ShuffleRecords)
	count("mapreduce.reduce_groups", st.ReduceGroups)
	per("mapreduce.local_routed_ratio", "ratio", st.LocalRouted, st.LocalRouted+st.CrossRouted)
	count("mapreduce.pool_miss", st.PoolMisses)
	metrics["mapreduce.pooled_mb"] = single(float64(st.PooledBytes)/(1<<20), "MiB")
	count("mapreduce.task_retries", st.MapTaskRetries+st.ReduceTaskRetries)
	count("extsort.spilled_records", st.SpilledRecords)
	count("extsort.spill_runs", st.SpillRuns)
	per("extsort.spill_ratio", "ratio", st.SpilledRecords, st.ShuffleRecords)
	metrics["extsort.bytes_saved"] = single(float64(st.SpillBytesSaved), "B")
	metrics["remote.bytes_out"] = single(float64(st.RemoteBytesOut), "B")
	metrics["remote.bytes_in"] = single(float64(st.RemoteBytesIn), "B")
	per("remote.bytes_per_record", "B/rec", st.RemoteBytesOut+st.RemoteBytesIn, st.ShuffleRecords)
	count("remote.recoveries", st.WorkerRecoveries)
	count("remote.reseeded", st.ReseededPartitions)
	count("remote.reconnects", st.WorkerReconnects)
	count("remote.hb_timeouts", st.HeartbeatTimeouts)
	count("remote.speculative_launches", st.SpeculativeLaunches)
}

// checkFixture compares the first job with expect.json.
func (r *runner) checkFixture() {
	var all map[string]expectation
	if err := json.Unmarshal(expectJSON, &all); err != nil {
		r.fail("expect.json: %v", err)
		return
	}
	want, ok := all[r.in.w.name]
	if !ok {
		r.fail("expect.json has no entry for %s", r.in.w.name)
		return
	}
	got := r.first
	if got.edges != want.Edges || got.joinRounds+got.rounds != want.MRRounds || got.matched != want.MatchedEdges ||
		math.Abs(got.value-want.Value) > 1e-9*want.Value {
		r.fail("seed 1 gave %d edges, %d rounds, %d matched, value %v; expect.json has %d, %d, %d, %v",
			got.edges, got.joinRounds+got.rounds, got.matched, got.value,
			want.Edges, want.MRRounds, want.MatchedEdges, want.Value)
	}
	if r.detail != nil {
		got = r.detail
	}
	if got.match == nil {
		return // Pipeline.Run does not expose the shuffle counts
	}
	records := got.match.Shuffle.ShuffleRecords
	if got.join != nil {
		records += got.join.Shuffle.ShuffleRecords
	}
	if records != want.ShuffleRecords {
		r.fail("seed 1 shuffled %d records; expect.json has %d", records, want.ShuffleRecords)
	}
}
