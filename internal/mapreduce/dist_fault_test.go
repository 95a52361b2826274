package mapreduce

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"reflect"
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
