package mrcli

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

// parse registers the full flag set on a fresh FlagSet — next to a tool
// flag of bmatch's, so tool arguments parse too — and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("in", "", "")
	f := Register(fs, 18)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	return f
}

// TestShuffleContradictingDistWorkersIsRejected: -dist-workers replaces
// the local shuffle, so an explicit -shuffle naming a local backend used
// to be dropped without a word. It is an error now; the default value
// and an explicit "dist" are not contradictions.
func TestShuffleContradictingDistWorkersIsRejected(t *testing.T) {
	for _, kind := range []string{"spill", "memory"} {
		_, err := parse(t, "-shuffle", kind, "-dist-workers", "2").Config()
		if err == nil || !strings.Contains(err.Error(), "-shuffle "+kind+" contradicts -dist-workers 2") {
			t.Fatalf("-shuffle %s -dist-workers 2: err = %v, want a contradiction error", kind, err)
		}
	}
	for _, args := range [][]string{
		{"-dist-workers", "2"},
		{"-shuffle", "dist", "-dist-workers", "2"},
		{"-shuffle", "spill", "-spill-budget", "512"},
	} {
		if _, err := parse(t, args...).Config(); err != nil {
			t.Fatalf("%q rejected: %v", args, err)
		}
	}
	cfg, _ := parse(t, "-shuffle", "spill", "-spill-budget", "512").Config()
	if cfg.Shuffle.Backend != mapreduce.ShuffleSpill || cfg.Shuffle.MemoryBudget != 512 {
		t.Fatalf("spill flags reached the Config as %+v", cfg)
	}
}

// TestRetiredFlagsAreRefused: block compression, coordinator crash
// resume, the checkpoint throttle and late join are gone, and their
// flags with them — a script that still passes one fails at parse time
// instead of running without what it asked for.
func TestRetiredFlagsAreRefused(t *testing.T) {
	for _, name := range []string{"-wire-compress", "-spill-compress", "-dist-journal-dir", "-dist-resume", "-ckpt-every", "-dist-accept-late"} {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs, 18)
		if err := fs.Parse([]string{name}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", name, err)
		}
	}
}

// TestWorkerArgvRoundTrip: the argv a coordinator builds for its workers
// parses, with the same flag set, into worker mode against the same
// address, with the tool's own arguments intact.
func TestWorkerArgvRoundTrip(t *testing.T) {
	coord := parse(t, "-dist-workers", "2")
	argv := coord.workerArgv("127.0.0.1:4242", "-in", "graph.txt")
	worker := parse(t, argv...)
	if !worker.WorkerMode() || worker.connect != "127.0.0.1:4242" {
		t.Fatalf("argv %q parsed into connect=%q, not worker mode at the coordinator's address", argv, worker.connect)
	}
	if worker.Distributed() {
		t.Fatalf("argv %q made the worker a coordinator", argv)
	}
	if in := worker.fs.Lookup("in").Value.String(); in != "graph.txt" {
		t.Fatalf("tool argument lost on the way to the worker: -in = %q", in)
	}
}

// TestClusterOptionsFromFlags pins the -dist-* flags as the engine
// receives them, including the spelling that differs between the two
// (0 turns heartbeats off; the engine's 0 means default).
func TestClusterOptionsFromFlags(t *testing.T) {
	opts := parse(t, "-dist-workers", "1", "-dist-heartbeat", "0", "-dist-listen", "127.0.0.1:4242").clusterOptions()
	if opts.HeartbeatEvery != -1 || opts.Listen != "127.0.0.1:4242" {
		t.Fatalf("cluster options %+v", opts)
	}
	if d := parse(t).clusterOptions().HeartbeatEvery; d != 500*time.Millisecond {
		t.Fatalf("default heartbeat %v, want 500ms", d)
	}
}

// TestPrintCostAlignsToTheToolsLabelColumn pins the line prefixes CI's
// distributed smoke greps, at both tools' widths, and that zero counters
// print nothing.
func TestPrintCostAlignsToTheToolsLabelColumn(t *testing.T) {
	s := mapreduce.Stats{
		MapWall: time.Millisecond, LocalRouted: 1, PooledBytes: 2, RemoteBytesOut: 3,
	}
	var b bytes.Buffer
	f := &Flags{width: 18}
	f.PrintCost(&b, s)
	f.printRecovery(&b, mapreduce.RecoveryStats{WorkersLost: 1, HeartbeatTimeouts: 1})
	for _, prefix := range []string{
		"phase walls:      map=1ms shuffle=0s reduce=0s (summed over rounds)\n",
		"routing:          local=1 cross=0 ",
		"buffer pool:      2 bytes reused, 0 misses\n",
		"dist transport:   3 bytes out, 0 bytes in, worker wall 0s\n",
		"dist recovery:    1 workers lost (1 by heartbeat timeout), 0 jobs retried",
	} {
		if !strings.Contains(b.String(), prefix) {
			t.Errorf("width 18: missing %q in\n%s", prefix, b.String())
		}
	}
	b.Reset()
	f = &Flags{width: 16}
	f.PrintCost(&b, mapreduce.Stats{})
	f.printRecovery(&b, mapreduce.RecoveryStats{})
	if got, want := b.String(), "phase walls:    map=0s shuffle=0s reduce=0s (summed over rounds)\n"; got != want {
		t.Errorf("width 16, zero stats: printed %q, want only %q", got, want)
	}
}
