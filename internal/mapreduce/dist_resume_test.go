package mapreduce

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/mapreduce/remote"
)

// graceHB is the reconnect-test tempo: the health-monitor heartbeat
// cadence plus a reconnect grace window, which flips every worker
// session into resume mode (sequence-numbered frames, retransmit rings,
// redial-and-reattach on transport error).
func graceHB() DistClusterOptions {
	opts := fastHB()
	opts.ReconnectGrace = 5 * time.Second
	return opts
}

// TestDistReconnectSeverRedial is the tentpole chaos matrix for session
// resume: a transport fault severs one worker session at a seed-derived
// frame index — alternating directions, as in TestDistFaultMatrix — but
// with ReconnectGrace set the sever must be absorbed invisibly. The
// worker redials, re-attaches by token, both sides replay un-acked
// frames, and the run finishes bit-identical with ZERO reseeded
// partitions and no worker ever declared lost.
func TestDistReconnectSeverRedial(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl := startSchedCluster(t, 2, graceHB(), nil)
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
				t.Fatal("severed-then-redialed run diverges from memory backend")
			}
			rs := cl.RecoveryStats()
			if rs.WorkerReconnects < 1 {
				t.Fatalf("sever absorbed without a reconnect: %+v", rs)
			}
			if rs.Reseeded != 0 || rs.WorkersLost != 0 {
				t.Fatalf("resume escalated to loss recovery: lost=%d reseeded=%d",
					rs.WorkersLost, rs.Reseeded)
			}
			t.Logf("seed %d: reconnects=%d frames replayed=%d",
				seed, rs.WorkerReconnects, rs.FramesReplayed)
		})
	}
}

// TestDistReconnectNotIndicted pins the interaction between session
// resume and the health monitor: a recovering worker is silent while it
// redials. The monitor must skip recovering sessions, so the run still
// completes bit-identical via reattach, not via a loss and a reseed.
func TestDistReconnectNotIndicted(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	cl := startSchedCluster(t, 2, graceHB(), nil)
	if err := cl.InjectFault(1, &remote.Fault{
		Op: remote.FaultSever, AfterWrites: remote.FaultPoint(11, 1, 12),
	}); err != nil {
		t.Fatal(err)
	}
	got := ringRounds(t, distCfg4(cl, "ring-step"), rounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reconnect under the health monitor diverges from memory backend")
	}
	rs := cl.RecoveryStats()
	if rs.WorkerReconnects < 1 {
		t.Fatalf("sever absorbed without a reconnect: %+v", rs)
	}
	if rs.Reseeded != 0 || rs.WorkersLost != 0 {
		t.Fatalf("resume escalated to loss recovery: lost=%d reseeded=%d",
			rs.WorkersLost, rs.Reseeded)
	}
}

// TestDistClusterCloseIdempotent pins the Close contract: the second
// Close — the deferred one after an explicit shutdown — re-reports the
// first close's verdict instead of re-running teardown.
func TestDistClusterCloseIdempotent(t *testing.T) {
	cl := startTestCluster(t, 2)
	if _, _, err := RunDS(context.Background(), distCfg4(cl, "ring-step"),
		PartitionDataset(ringInput(), 4), ringMap, ringReduce); err != nil {
		t.Fatal(err)
	}
	err1 := cl.Close()
	err2 := cl.Close()
	if err1 != nil {
		t.Fatalf("first close: %v", err1)
	}
	if err2 != err1 {
		t.Fatalf("second close changed the verdict: %v, want %v", err2, err1)
	}
	if err3 := cl.Close(); err3 != err1 {
		t.Fatalf("third close changed the verdict: %v", err3)
	}
}

// TestDistFaultCutSeed severs a session in the middle of a frame — a
// real length prefix followed by a truncated payload — so the surviving
// side must fail cleanly on a torn blob, and recovery must restore the
// dead worker's partitions from their lineage. No grace window here: a
// cut is fatal by design.
func TestDistFaultCutSeed(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	cl := startTestCluster(t, 2)
	// Frame 14 lands in a chained round, after the first round's output
	// went worker-resident: recovery must restore the dead worker's
	// partitions, recomputing them from their lineage.
	if err := cl.InjectFault(0, &remote.Fault{
		Op:          remote.FaultCut,
		AfterWrites: 14,
		CutBytes:    7,
	}); err != nil {
		t.Fatal(err)
	}
	got := ringRounds(t, distCfg4(cl, "ring-step"), rounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mid-frame cut run diverges from memory backend")
	}
	rs := cl.RecoveryStats()
	if rs.WorkersLost < 1 || rs.Recoveries < 1 {
		t.Fatalf("cut did not trigger recovery: %+v", rs)
	}
	if rs.Reseeded < 1 {
		t.Fatalf("recovery never restored a partition: %+v", rs)
	}
	t.Logf("cut recovery: lost=%d retried=%d reseeded=%d",
		rs.WorkersLost, rs.Recoveries, rs.Reseeded)
}

// TestDialWithRetryStopsOnCancel: a worker cancelled while it waits out
// its startup backoff returns at once with the context's error, instead
// of sleeping out a 2 s delay first.
func TestDialWithRetryStopsOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens there now: every dial is refused

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	nc, err := dialWithRetry(ctx, addr, ReconnectPolicy{Attempts: 5, BaseDelay: 2 * time.Second, MaxDelay: 2 * time.Second}, 1)
	took := time.Since(start)
	if nc != nil {
		nc.Close()
		t.Fatal("dialed an address nothing listens on")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want %v", err, context.Canceled)
	}
	if took >= 300*time.Millisecond {
		t.Fatalf("returned %v after the start, 50ms after which it was cancelled; want under 300ms", took)
	}
}

// TestDistWorkerStartsBeforeCoordinator pins the startup retry: a
// worker launched before the coordinator is listening keeps redialing
// with backoff instead of failing its first connect.
func TestDistWorkerStartsBeforeCoordinator(t *testing.T) {
	leakcheck.Check(t)
	// Reserve an address, then free it for the coordinator to claim.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := ServeDistWorkerOpts(ctx, addr, DistWorkerOptions{
			Reconnect: ReconnectPolicy{Attempts: 40, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
		})
		if err != nil {
			t.Logf("early worker: %v", err)
		}
	}()
	// Let the worker burn a few failed dials against the dead address
	// before the coordinator shows up.
	time.Sleep(150 * time.Millisecond)
	cl, err := StartDistCluster(1, DistClusterOptions{Listen: addr, Timeout: 30 * time.Second})
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		cancel()
		wg.Wait()
	})
	want := memoryRingReference(t, 1)
	got := ringRounds(t, distCfg4(cl, "ring-step"), 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("early-worker run diverges from memory backend")
	}
}

// TestDecodePairsTruncated pins the torn-blob contract the cut fault
// relies on: a pair blob truncated at any point must either decode to an
// error or reproduce the pairs exactly. Never a panic, never wrong data
// reported as success.
func TestDecodePairsTruncated(t *testing.T) {
	pairs := make([]Pair[int32, int64], 400)
	for i := range pairs {
		pairs[i] = Pair[int32, int64]{Key: int32(i % 7), Value: 42}
	}
	blob := encodeTestPairs(t, pairs)
	errored := 0
	for cut := 1; cut < len(blob); cut++ {
		out, _, derr := decodeTestPairs[int32, int64](t, blob[:cut], len(pairs))
		if derr != nil {
			errored++
			continue
		}
		if !reflect.DeepEqual(out, pairs) {
			t.Fatalf("blob truncated at %d/%d decoded silently to wrong data", cut, len(blob))
		}
	}
	if errored == 0 {
		t.Fatal("no truncation point ever surfaced a decode error")
	}
}
