// Package mrcli is the MapReduce engine's command-line surface, declared
// once: the shuffle, codec, profiling and -dist-* flags every CLI of
// this repository accepts, what they mean as a mapreduce.Config and
// DistClusterOptions, worker mode, the self-exec recipe that starts
// worker processes with the same flags, and the engine-cost lines the
// tools print. A tool registers the set on its FlagSet next to its own
// flags and keeps only what is specific to it.
package mrcli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cliio"
	"repro/internal/mapreduce"
)

// Flag names that are referred to after registration: the ones a
// coordinator writes into the argv of the workers it spawns, and the one
// Config inspects for an explicit setting.
const (
	flagShuffle = "shuffle"
	flagWorkers = "dist-workers"
	flagConnect = "dist-connect"
)

// Flags holds the parsed engine flags of one CLI invocation.
type Flags struct {
	fs    *flag.FlagSet
	width int

	shuffle string
	budget  int
	tempDir string

	cpuProfile, memProfile string

	workers   int
	connect   string
	listen    string
	spawn     bool
	heartbeat time.Duration
}

// RegisterLocal declares the flags of a tool that runs its jobs in one
// process: the shuffle backend and its spill bounds. width is the label
// column of the tool's report, which PrintCost aligns to.
func RegisterLocal(fs *flag.FlagSet, width int) *Flags {
	f := &Flags{fs: fs, width: width}
	fs.StringVar(&f.shuffle, flagShuffle, "memory", "MapReduce shuffle backend: memory | spill")
	fs.IntVar(&f.budget, "spill-budget", 0, "max in-memory intermediate records per job for -shuffle spill (0 = default 1M)")
	fs.StringVar(&f.tempDir, "spill-dir", "", "directory for spill files (default: system temp dir)")
	return f
}

// Register declares the full engine surface: RegisterLocal's flags plus
// profiling and distributed mode (coordinator and
// worker side).
func Register(fs *flag.FlagSet, width int) *Flags {
	f := RegisterLocal(fs, width)
	fs.Lookup(flagShuffle).Usage += " (-dist-workers selects dist)"
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file on exit")

	fs.IntVar(&f.workers, flagWorkers, 0, "shard reduce partitions across this many worker processes (0 = single process)")
	fs.StringVar(&f.connect, flagConnect, "", "worker mode: connect to a coordinator at host:port, serve its jobs, and exit")
	fs.StringVar(&f.listen, "dist-listen", "", "coordinator listen address for -dist-workers (default 127.0.0.1:0)")
	fs.BoolVar(&f.spawn, "dist-spawn", true, "self-exec the -dist-workers worker processes (false: wait for -dist-connect workers)")
	fs.DurationVar(&f.heartbeat, "dist-heartbeat", 500*time.Millisecond, "dist worker heartbeat interval; a worker a running job waits on that stays silent for 24 intervals is declared lost and its partitions recovered (0 disables health monitoring)")
	return f
}

// StartProfiles begins a CPU profile (-cpuprofile) so perf work on the
// real workloads is reproducible. Defer the returned function with the
// run's error: it ends the capture, writes the heap profile
// (-memprofile), and reports the first profile-write failure through
// *errp when the run itself succeeded — a truncated or unwritable
// profile exits nonzero instead of leaving a corrupt file (profiles
// route through cliio's checked close like every other CLI output).
func (f *Flags) StartProfiles() (stop func(errp *error), err error) {
	var cpuFile *os.File
	if f.cpuProfile != "" {
		cpuFile, err = os.Create(f.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func(errp *error) {
		var perr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			// StartCPUProfile wrote to the raw file; wrap it only for
			// the checked close (the buffer holds nothing).
			perr = cliio.Wrap(cpuFile).Close()
		}
		if f.memProfile != "" {
			out, cerr := cliio.Create(f.memProfile)
			if cerr == nil {
				runtime.GC() // materialize the final live set
				cerr = pprof.WriteHeapProfile(out)
				cliio.CloseInto(out, &cerr)
			}
			if perr == nil {
				perr = cerr
			}
		}
		if *errp == nil {
			*errp = perr
		}
	}, nil
}

// WorkerMode reports whether -dist-connect asked this process to serve a
// coordinator instead of running the tool's own computation.
func (f *Flags) WorkerMode() bool { return f.connect != "" }

// Distributed reports whether -dist-workers asked for a worker cluster.
func (f *Flags) Distributed() bool { return f.workers > 0 }

// ServeWorker is worker mode: it serves the -dist-connect coordinator's
// jobs until the coordinator hangs up. The caller registers the tool's
// dist jobs first.
func (f *Flags) ServeWorker(ctx context.Context) error {
	return mapreduce.ServeDistWorker(ctx, f.connect)
}

// workerArgv is the argument list a coordinator gives the workers it
// spawns: worker mode against addr, then the tool's own arguments
// (whatever rebuilds the same input on the worker).
// It is written with the flag names Register declares, so it parses
// with the same flag set.
func (f *Flags) workerArgv(addr string, toolArgs ...string) []string {
	return append([]string{"-" + flagConnect, addr}, toolArgs...)
}

// Config is the engine configuration the flags describe, for the local
// backends. Under -dist-workers use Start, which also needs a cluster.
func (f *Flags) Config() (mapreduce.Config, error) {
	explicit := false
	f.fs.Visit(func(fl *flag.Flag) { explicit = explicit || fl.Name == flagShuffle })
	if f.Distributed() && explicit && mapreduce.ShuffleKind(f.shuffle) != mapreduce.ShuffleDist {
		return mapreduce.Config{}, fmt.Errorf("-%s %s contradicts -%s %d: worker processes replace the local shuffle (drop one of the two flags)",
			flagShuffle, f.shuffle, flagWorkers, f.workers)
	}
	return mapreduce.Config{
		Shuffle: mapreduce.ShuffleConfig{
			Backend:      mapreduce.ShuffleKind(f.shuffle),
			MemoryBudget: f.budget,
			TempDir:      f.tempDir,
		},
	}, nil
}

// clusterOptions is the -dist-* flags as the engine spells them.
func (f *Flags) clusterOptions() mapreduce.DistClusterOptions {
	opts := mapreduce.DistClusterOptions{
		Listen:         f.listen,
		HeartbeatEvery: f.heartbeat,
	}
	if f.heartbeat == 0 {
		opts.HeartbeatEvery = -1 // flag 0 means off; the options zero value means default
	}
	return opts
}

// Start returns the Config the tool's jobs run with. Under -dist-workers
// it first starts the cluster — re-executing this binary in worker mode
// with toolArgs unless -dist-spawn=false — and the Config selects it.
// Defer the returned function with the run's error: it closes the
// cluster — checked, because the close reaps the spawned workers and a
// worker that died with a nonzero status is a failed run — and prints
// the cluster's recovery summary to stderr (only when something
// happened, so a healthy run's output stays byte-stable).
func (f *Flags) Start(toolArgs ...string) (cfg mapreduce.Config, closeCluster func(errp *error), err error) {
	cfg, err = f.Config()
	if err != nil || !f.Distributed() {
		return cfg, func(*error) {}, err
	}
	opts := f.clusterOptions()
	if f.spawn {
		exe, err := os.Executable()
		if err != nil {
			return cfg, nil, err
		}
		opts.Spawn = func(addr string) *exec.Cmd {
			cmd := exec.Command(exe, f.workerArgv(addr, toolArgs...)...)
			cmd.Stderr = os.Stderr
			return cmd
		}
	}
	cluster, err := mapreduce.StartDistCluster(f.workers, opts)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Shuffle.Backend = mapreduce.ShuffleDist
	cfg.Dist = cluster
	return cfg, func(errp *error) {
		if cerr := cluster.Close(); cerr != nil && *errp == nil {
			*errp = cerr
		}
		f.printRecovery(os.Stderr, cluster.RecoveryStats())
	}, nil
}

// line prints one report line under the tool's label column.
func (f *Flags) line(w io.Writer, label, format string, args ...any) {
	fmt.Fprintf(w, "%-*s %s\n", f.width-1, label, fmt.Sprintf(format, args...))
}

func (f *Flags) printRecovery(w io.Writer, rs mapreduce.RecoveryStats) {
	if rs.WorkersLost > 0 {
		f.line(w, "dist recovery:", "%d workers lost (%d by heartbeat timeout), %d jobs retried, %d partitions reseeded",
			rs.WorkersLost, rs.HeartbeatTimeouts, rs.Recoveries, rs.Reseeded)
	}
}

// PrintCost prints the engine-cost block of a report — per-phase wall
// clocks, the shuffle routing split, buffer-pool traffic, the dist
// transport footprint, each summed over the run's jobs — leaving out the lines whose counters stayed zero.
func (f *Flags) PrintCost(w io.Writer, s mapreduce.Stats) {
	f.line(w, "phase walls:", "map=%s shuffle=%s reduce=%s (summed over rounds)",
		s.MapWall.Round(time.Microsecond), s.ShuffleWall.Round(time.Microsecond), s.ReduceWall.Round(time.Microsecond))
	if s.LocalRouted > 0 || s.CrossRouted > 0 {
		f.line(w, "routing:", "local=%d cross=%d (identity-routed vs hashed records)", s.LocalRouted, s.CrossRouted)
	}
	if s.PooledBytes > 0 || s.PoolMisses > 0 {
		f.line(w, "buffer pool:", "%d bytes reused, %d misses", s.PooledBytes, s.PoolMisses)
	}
	if s.RemoteBytesOut > 0 || s.RemoteBytesIn > 0 {
		f.line(w, "dist transport:", "%d bytes out, %d bytes in, worker wall %s",
			s.RemoteBytesOut, s.RemoteBytesIn, s.WorkerWall.Round(time.Microsecond))
	}
}
