package mapreduce

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/mapreduce/remote"
)

// fastHB is the health-monitor test tempo: a 20ms heartbeat declares a
// hung worker lost after 480ms of silence (hbDeadIntervals intervals),
// and the short abort deadline keeps a never-acking stalled worker from
// holding a retry for the production default of 30s.
func fastHB() DistClusterOptions {
	return DistClusterOptions{
		Timeout:        30 * time.Second,
		HeartbeatEvery: 20 * time.Millisecond,
		AbortTimeout:   500 * time.Millisecond,
	}
}

// startSchedCluster is startTestCluster with per-session worker options:
// worker goroutine i serves with wopts(i). Worker IDs are assigned in
// accept order, so i does not name the cluster-side index — the
// health-monitor tests only care that exactly one session carries the
// fault, and they are symmetric in which one it is.
func startSchedCluster(tb testing.TB, n int, opts DistClusterOptions, wopts func(i int) DistWorkerOptions) *DistCluster {
	tb.Helper()
	leakcheck.Check(tb)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	prev := opts.OnListen
	opts.OnListen = func(addr string) {
		if prev != nil {
			prev(addr)
		}
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				var o DistWorkerOptions
				if wopts != nil {
					o = wopts(i)
				}
				if err := ServeDistWorkerOpts(ctx, addr, o); err != nil {
					tb.Logf("in-process worker %d: %v", i, err)
				}
			}()
		}
	}
	cl, err := StartDistCluster(n, opts)
	if err != nil {
		cancel()
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		cl.Close()
		cancel()
		wg.Wait()
	})
	return cl
}

// stallFault arms the gray failure on one worker session: from the k-th
// job frame it writes, the session stops moving frames in both
// directions while its socket stays open — the coordinator never sees a
// transport error, only silence.
func stallFault(k int) func(i int) DistWorkerOptions {
	return func(i int) DistWorkerOptions {
		if i != 0 {
			return DistWorkerOptions{}
		}
		return DistWorkerOptions{Fault: &remote.Fault{Op: remote.FaultStall, AfterWrites: k}}
	}
}

// TestDistHeartbeatDetectsStalledWorker pins the health-detection path:
// a worker that goes silent mid-run (stall, not disconnect — no
// transport error ever surfaces) is declared lost once its silence
// passes hbDeadIntervals heartbeat intervals, after which the round
// retries on the survivor and the run ends bit-identical to the memory
// backend. With heartbeats off the run hangs on the stalled worker.
func TestDistHeartbeatDetectsStalledWorker(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	cl := startSchedCluster(t, 2, fastHB(), stallFault(3))
	got := ringRounds(t, distCfg4(cl, "ring-step"), rounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stalled run diverges from memory backend")
	}
	rs := cl.RecoveryStats()
	if rs.HeartbeatTimeouts < 1 {
		t.Fatalf("heartbeat monitor reported %d timeouts, want >= 1", rs.HeartbeatTimeouts)
	}
	if rs.WorkersLost < 1 || rs.Recoveries < 1 {
		t.Fatalf("stall ended with lost=%d retried=%d, want >= 1 each", rs.WorkersLost, rs.Recoveries)
	}
	t.Logf("hb timeouts=%d lost=%d retried=%d", rs.HeartbeatTimeouts, rs.WorkersLost, rs.Recoveries)
}

// TestDistSlowWorkerNotKilled pins the other side of the death
// verdict: a worker that is uniformly slow (every job frame delayed) but
// perfectly responsive — heartbeats flow on schedule — must never be
// declared dead. The run waits it out and ends bit-identical.
func TestDistSlowWorkerNotKilled(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	slow := func(i int) DistWorkerOptions {
		if i != 0 {
			return DistWorkerOptions{}
		}
		return DistWorkerOptions{Fault: &remote.Fault{
			Op: remote.FaultDelay, AfterWrites: 1, Delay: 40 * time.Millisecond, Repeat: true,
		}}
	}
	cl := startSchedCluster(t, 2, fastHB(), slow)
	got := ringRounds(t, distCfg4(cl, "ring-step"), rounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("straggler run diverges from memory backend")
	}
	rs := cl.RecoveryStats()
	if rs.WorkersLost != 0 {
		t.Fatalf("a responsive straggler was declared dead (lost=%d)", rs.WorkersLost)
	}
	t.Logf("hb timeouts=%d lost=%d", rs.HeartbeatTimeouts, rs.WorkersLost)
}
