package mapreduce

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/mapreduce/remote"
)

// TestDistSeveredWorkerIsLost pins the one failure model: a worker
// whose connection is severed is a lost worker, whatever the cluster
// options say. The cluster starts as the benchmark starts its own — a
// 10 s ReconnectGrace and default worker options — and one worker's
// connection is cut mid-ring. The run must still equal the memory
// backend, reached through lineage recovery (one worker lost, at least
// one retry); the severed worker's ServeDistWorker must return an error
// promptly instead of redialing; and the coordinator must accept no
// connection once its workers are in.
func TestDistSeveredWorkerIsLost(t *testing.T) {
	leakcheck.Check(t)
	const rounds = 3
	want := memoryRingReference(t, rounds)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var addr string
	served := make(chan error, 2)
	cl, err := StartDistCluster(2, DistClusterOptions{
		Timeout:        30 * time.Second,
		ReconnectGrace: 10 * time.Second,
		OnListen: func(a string) {
			addr = a
			for i := 0; i < 2; i++ {
				go func() { served <- ServeDistWorker(ctx, a) }()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			cl.Close()
		}
	}()

	if nc, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		nc.Close()
		t.Fatal("the coordinator accepted a connection after startup")
	}
	if err := cl.InjectFault(1, &remote.Fault{Op: remote.FaultSever, AfterWrites: remote.FaultPoint(4, 1, 12)}); err != nil {
		t.Fatal(err)
	}
	got := ringRounds(t, distCfg4(cl, "ring-step"), rounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("severed run diverges from memory backend")
	}
	if rs := cl.RecoveryStats(); rs.WorkersLost != 1 || rs.Recoveries < 1 {
		t.Fatalf("recovery stats %+v, want the severed worker lost and at least one retry", rs)
	}
	// The severed worker saw its connection close when the fault fired,
	// before the ring finished; 2 s is slack for a loaded machine, far
	// short of the grace a redialing worker would have been given.
	const bound = 2 * time.Second
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("the severed worker's session ended without an error")
		}
		t.Logf("severed worker: %v", err)
	case <-time.After(bound):
		t.Fatalf("the severed worker was still serving %v after the run", bound)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	closed = true
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("the surviving worker's session failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the surviving worker did not end at the coordinator's goodbye")
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
// dead worker's partitions from their lineage.
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
	nc, err := dialWithRetry(ctx, addr, 5, 2*time.Second, 2*time.Second, 1)
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
// with the default backoff instead of failing its first connect.
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
		if err := ServeDistWorker(ctx, addr); err != nil {
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
