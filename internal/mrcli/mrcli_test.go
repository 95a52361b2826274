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

// TestRetiredCompressionFlagsAreRefused: block compression is gone, and
// its flags with it — a script that still passes one fails at parse time
// instead of running without what it asked for.
func TestRetiredCompressionFlagsAreRefused(t *testing.T) {
	for _, name := range []string{"-wire-compress", "-spill-compress"} {
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
// address with the same reconnect budget — including "0 means off",
// which the engine spells as a negative budget.
func TestWorkerArgvRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		budget string
		want   int
	}{{"3", 3}, {"0", -1}, {"8", 8}} {
		coord := parse(t, "-dist-workers", "2", "-dist-reconnect", tc.budget)
		argv := coord.workerArgv("127.0.0.1:4242", "-in", "graph.txt")
		worker := parse(t, argv...)
		if !worker.WorkerMode() || worker.connect != "127.0.0.1:4242" {
			t.Fatalf("argv %q parsed into connect=%q, not worker mode at the coordinator's address", argv, worker.connect)
		}
		if worker.Distributed() {
			t.Fatalf("argv %q made the worker a coordinator", argv)
		}
		if got := worker.reconnectPolicy(); got != coord.reconnectPolicy() || got.Attempts != tc.want {
			t.Fatalf("-dist-reconnect %s: worker policy %+v, coordinator %+v, want %d attempts",
				tc.budget, got, coord.reconnectPolicy(), tc.want)
		}
		if in := worker.fs.Lookup("in").Value.String(); in != "graph.txt" {
			t.Fatalf("tool argument lost on the way to the worker: -in = %q", in)
		}
	}
}

// TestClusterOptionsFromFlags pins the two spellings that differ between
// flag and engine (0 turns heartbeats off; the engine's 0 means default)
// and that -dist-resume without a journal reaches the engine, which
// refuses it.
func TestClusterOptionsFromFlags(t *testing.T) {
	opts := parse(t, "-dist-workers", "1", "-dist-heartbeat", "0", "-dist-reconnect-grace", "3s",
		"-dist-journal-dir", "/j", "-dist-accept-late").clusterOptions()
	if opts.HeartbeatEvery != -1 || opts.ReconnectGrace != 3*time.Second || opts.JournalDir != "/j" || !opts.AcceptLate {
		t.Fatalf("cluster options %+v", opts)
	}
	if d := parse(t).clusterOptions().HeartbeatEvery; d != 500*time.Millisecond {
		t.Fatalf("default heartbeat %v, want 500ms", d)
	}
	_, _, err := parse(t, "-dist-workers", "1", "-dist-spawn=false", "-dist-resume").Start()
	if err == nil || !strings.Contains(err.Error(), "journal directory") {
		t.Fatalf("-dist-resume without -dist-journal-dir: err = %v, want the engine's refusal", err)
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
	f.printRecovery(&b, mapreduce.RecoveryStats{WorkersLost: 1, HeartbeatTimeouts: 1, WorkerReconnects: 1})
	for _, prefix := range []string{
		"phase walls:      map=1ms shuffle=0s reduce=0s (summed over rounds)\n",
		"routing:          local=1 cross=0 ",
		"buffer pool:      2 bytes reused, 0 misses\n",
		"dist transport:   3 bytes out, 0 bytes in, worker wall 0s\n",
		"dist recovery:    1 workers lost (1 by heartbeat timeout), 0 jobs retried",
		"dist durability:  1 worker reconnects",
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
