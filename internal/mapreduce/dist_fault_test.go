package mapreduce

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce/remote"
)

// ringRounds chains `rounds` ring jobs over cfg and returns the final
// materialized output — the shared workload of the fault suite. The
// registered job name in cfg decides what the dist workers actually run
// ("ring-step" or its slowed twin "slow-ring"); both fold exactly like
// ringReduce, so one memory reference serves every backend.
func ringRounds(t *testing.T, cfg Config, rounds int) []Pair[int32, int64] {
	t.Helper()
	ctx := context.Background()
	ds := PartitionDataset(ringInput(), cfg.reducers())
	for i := 0; i < rounds; i++ {
		next, _, err := RunDS(ctx, cfg, ds, ringMap, ringReduce)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		ds = next
	}
	if err := ds.Materialize(); err != nil {
		t.Fatal(err)
	}
	return ds.Collect()
}

// memoryRingReference is the fault-free ground truth the chaos tests
// diff against.
func memoryRingReference(t *testing.T, rounds int) []Pair[int32, int64] {
	t.Helper()
	return ringRounds(t, Config{Mappers: 4, Reducers: 4, Name: "ring-step"}, rounds)
}

// TestDistFaultMatrix is the deterministic in-process chaos matrix:
// for each seed, a transport fault severs one worker's connection at a
// seed-derived frame index (remote.FaultPoint) — alternating between
// the write and read direction, so both the bucket-streaming and the
// reader/relay failure paths trigger. A severed connection is
// indistinguishable from a SIGKILLed worker. Every run must recover at
// the round boundary and finish bit-identical to the memory backend.
func TestDistFaultMatrix(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl := startTestCluster(t, 2)
			f := &remote.Fault{Op: remote.FaultSever}
			if seed%2 == 0 {
				f.AfterWrites = remote.FaultPoint(seed, 1, 12)
			} else {
				f.AfterReads = remote.FaultPoint(seed, 1, 8)
			}
			if err := cl.InjectFault(int(seed)%2, f); err != nil {
				t.Fatal(err)
			}
			got := ringRounds(t, distCfg4(cl, "ring-step"), rounds)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("faulted run diverges from memory backend")
			}
			rs := cl.RecoveryStats()
			if rs.WorkersLost < 1 || rs.Recoveries < 1 {
				t.Fatalf("recovery stats report lost=%d retried=%d, want >= 1 each", rs.WorkersLost, rs.Recoveries)
			}
			t.Logf("seed %d: lost=%d retried=%d", seed, rs.WorkersLost, rs.Recoveries)
		})
	}
}

// TestDistFaultDelayHarmless pins the other fault flavor: a one-shot
// transport stall must not kill anyone — the run completes with zero
// recoveries and identical output.
func TestDistFaultDelayHarmless(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	cl := startTestCluster(t, 2)
	if err := cl.InjectFault(1, &remote.Fault{
		Op: remote.FaultDelay, AfterWrites: remote.FaultPoint(7, 1, 12), Delay: 100 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	got := ringRounds(t, distCfg4(cl, "ring-step"), rounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("delayed run diverges from memory backend")
	}
	if rs := cl.RecoveryStats(); rs.WorkersLost != 0 || rs.Recoveries != 0 {
		t.Fatalf("a delay fault triggered recovery: lost=%d retried=%d", rs.WorkersLost, rs.Recoveries)
	}
}

// TestDistCheckpointEveryThrottle pins Config.CheckpointEvery's k > 0
// throttle, which counts retained job outputs on the cluster: of four
// chained jobs under CheckpointEvery 2, exactly the first and the third
// output are mirrored on the coordinator. The output stays right even so.
func TestDistCheckpointEveryThrottle(t *testing.T) {
	const rounds = 4
	want := memoryRingReference(t, rounds)
	cl := startTestCluster(t, 2)
	cfg := distCfg4(cl, "ring-step")
	cfg.CheckpointEvery = 2
	ds := PartitionDataset(ringInput(), cfg.reducers())
	var mirrored []bool
	for i := 0; i < rounds; i++ {
		next, _, err := RunDS(context.Background(), cfg, ds, ringMap, ringReduce)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		ds = next
		cl.mu.Lock()
		m := cl.residency[ds.rem.seq]
		mirrored = append(mirrored, m != nil && m.blobs != nil)
		cl.mu.Unlock()
	}
	if w := []bool{true, false, true, false}; !reflect.DeepEqual(mirrored, w) {
		t.Fatalf("mirrored outputs %v, want %v", mirrored, w)
	}
	if err := ds.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got := ds.Collect(); !reflect.DeepEqual(got, want) {
		t.Fatal("throttled run diverges from memory backend")
	}
}

// TestDistChaosKilledWorkers is the real-process chaos suite: three
// re-executed worker processes run the slowed chained ring job, and one
// of them — chosen by seed — takes a SIGKILL at a seed-derived delay,
// landing in a different round and phase per seed. Every run must
// complete bit-identical to the memory backend.
func TestDistChaosKilledWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	want := memoryRingReference(t, rounds)
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl, err := StartDistCluster(3, DistClusterOptions{
				Timeout: 60 * time.Second,
				Spawn: func(addr string) *exec.Cmd {
					cmd := exec.Command(exe, "-test.run", "^$")
					cmd.Env = append(os.Environ(), distWorkerEnv+"="+addr)
					cmd.Stderr = os.Stderr
					return cmd
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// The upper bound stays under the run's sleep-enforced minimum
			// (3 rounds x 53 keys x 5ms per worker), so the kill always
			// lands mid-computation.
			victim := int(seed) % 3
			delay := time.Duration(remote.FaultPoint(seed, 150, 700)) * time.Millisecond
			timer := time.AfterFunc(delay, func() {
				if err := cl.KillWorker(victim); err != nil {
					t.Errorf("kill worker %d: %v", victim, err)
				}
			})
			defer timer.Stop()

			cfg := distCfg4(cl, "slow-ring")
			got := ringRounds(t, cfg, rounds)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("post-SIGKILL run diverges from memory backend")
			}
			rs := cl.RecoveryStats()
			if rs.WorkersLost < 1 || rs.Recoveries < 1 {
				t.Fatalf("recovery stats report lost=%d retried=%d, want >= 1 each", rs.WorkersLost, rs.Recoveries)
			}
			t.Logf("seed %d: killed worker %d after %v; lost=%d retried=%d reseeded=%d",
				seed, victim, delay, rs.WorkersLost, rs.Recoveries, rs.Reseeded)
		})
	}
}

// BenchmarkDistChainedCheckpoint prices the fault-tolerance machinery:
// identical chained ring rounds with checkpointing at the default
// (every retained round: MsgCkpt mirror frames plus worker run files)
// and disabled. The /on vs /off delta is the checkpoint overhead the
// CI bench comparison pins to <= 10%. The /on-sched case additionally
// arms the health monitor (a 50ms heartbeat) on the healthy cluster;
// its delta over /on is the chained-round idle overhead of monitoring,
// pinned to <= 5%.
// The /journal case adds the coordinator run journal on top of /on —
// every job's result journaled, every round committed — and its delta
// over /on is the durability overhead, pinned to <= 10%.
func BenchmarkDistChainedCheckpoint(b *testing.B) {
	for _, bench := range []struct {
		name    string
		every   int
		hb      time.Duration
		journal bool
	}{
		{"on", 0, 0, false},
		{"off", -1, 0, false},
		{"on-sched", 0, 50 * time.Millisecond, false},
		{"journal", 0, 0, true},
	} {
		b.Run(bench.name, func(b *testing.B) {
			opts := DistClusterOptions{
				Timeout:        30 * time.Second,
				HeartbeatEvery: bench.hb,
			}
			if bench.journal {
				opts.JournalDir = b.TempDir()
			}
			cl := startSchedCluster(b, 2, opts, nil)
			cfg := distCfg4(cl, "ring-step")
			cfg.CheckpointEvery = bench.every
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds := PartitionDataset(ringInput(), cfg.reducers())
				for r := 0; r < 3; r++ {
					next, _, err := RunDS(ctx, cfg, ds, ringMap, ringReduce)
					if err != nil {
						b.Fatal(err)
					}
					ds = next
					// Round boundary, as a driver would commit it; no-op
					// without a journal.
					cl.journalCommit(r)
				}
				if err := ds.Materialize(); err != nil {
					b.Fatal(err)
				}
				ds.Recycle()
			}
		})
	}
}

// TestDistLateJoinAdoptsPartitions pins the replacement-worker path:
// with AcceptLate a fresh worker dials into a running cluster, and the
// next recovery adopts it — the dead worker's partitions are re-seeded
// from checkpoint mirrors onto the adopted pool and the run completes
// bit-identical.
func TestDistLateJoinAdoptsPartitions(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var clusterAddr string
	cl, err := StartDistCluster(2, DistClusterOptions{
		Timeout:    30 * time.Second,
		AcceptLate: true,
		OnListen: func(addr string) {
			mu.Lock()
			clusterAddr = addr
			mu.Unlock()
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := ServeDistWorker(context.Background(), addr); err != nil {
						t.Logf("in-process worker: %v", err)
					}
				}()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cl.Close(); wg.Wait() }()

	ctx := context.Background()
	cfg := distCfg4(cl, "ring-step")
	ds := PartitionDataset(ringInput(), cfg.reducers())
	ds, _, err = RunDS(ctx, cfg, ds, ringMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}

	// The replacement dials in while the cluster is healthy; it waits in
	// the late pool until a recovery adopts it.
	mu.Lock()
	addr := clusterAddr
	mu.Unlock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ServeDistWorker(context.Background(), addr); err != nil {
			t.Logf("late worker: %v", err)
		}
	}()
	for i := 0; ; i++ {
		cl.mu.Lock()
		n := len(cl.late)
		cl.mu.Unlock()
		if n > 0 {
			break
		}
		if i > 500 {
			t.Fatal("late worker never completed the handshake")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill worker 0 at its very next frame; the remaining rounds must
	// recover onto the survivor plus the adopted replacement.
	if err := cl.InjectFault(0, &remote.Fault{Op: remote.FaultSever, AfterWrites: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < rounds; i++ {
		ds, _, err = RunDS(ctx, cfg, ds, ringMap, ringReduce)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if err := ds.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got := ds.Collect(); !reflect.DeepEqual(got, want) {
		t.Fatal("late-join run diverges from memory backend")
	}
	if cl.Workers() != 3 {
		t.Fatalf("cluster holds %d workers after adoption, want 3 (2 initial + 1 late)", cl.Workers())
	}
	rs := cl.RecoveryStats()
	if rs.WorkersLost != 1 || rs.Recoveries < 1 || rs.Reseeded < 1 {
		t.Fatalf("recovery stats report lost=%d retried=%d reseeded=%d, want 1/>=1/>=1",
			rs.WorkersLost, rs.Recoveries, rs.Reseeded)
	}
}
