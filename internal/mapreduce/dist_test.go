package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/mapreduce/remote"
)

// startTestCluster starts n in-process workers serving the dist
// protocol over loopback TCP — real sockets, real frames, same process,
// so registered test closures are available on "both" sides.
func startTestCluster(t *testing.T, n int) *DistCluster {
	t.Helper()
	leakcheck.Check(t) // registered first so it runs after the teardown below
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	cl, err := StartDistCluster(n, DistClusterOptions{
		Timeout: 30 * time.Second,
		OnListen: func(addr string) {
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := ServeDistWorker(ctx, addr); err != nil {
						t.Logf("in-process worker: %v", err)
					}
				}()
			}
		},
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		cancel()
		wg.Wait()
	})
	return cl
}

// distCfg is the dist-backend analogue of spillCfg.
func distCfg(cl *DistCluster, name string) Config {
	return Config{
		Mappers: 4, Reducers: 3, Name: name,
		Shuffle: ShuffleConfig{Backend: ShuffleDist},
		Dist:    cl,
	}
}

func distCfg4(cl *DistCluster, name string) Config {
	cfg := distCfg(cl, name)
	cfg.Reducers = 4
	return cfg
}

// TestDistChainedStaysResident pins the partition-residency contract:
// once a Dataset lives on the workers, a chained job's self-addressed
// pairs never cross the wire. The first RunDS ships the whole input (a
// coordinator-held Dataset, placed on the workers); the second consumes
// the worker-resident output with a purely self-addressed map, so its
// RemoteBytesOut may carry only control frames — orders of magnitude
// below the first job's.
func TestDistChainedStaysResident(t *testing.T) {
	cl := startTestCluster(t, 2)
	cfg := distCfg4(cl, "self-step")
	ctx := context.Background()

	ds1, st1, err := RunDS(ctx, cfg, PartitionDataset(ringInput(), cfg.reducers()), selfMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}
	ds2, st2, err := RunDS(ctx, cfg, ds1, selfMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}
	if st2.LocalRouted != ringN || st2.CrossRouted != 0 {
		t.Fatalf("chained self-job routed local=%d cross=%d, want %d/0", st2.LocalRouted, st2.CrossRouted, ringN)
	}
	if st2.RemoteBytesOut >= st1.RemoteBytesOut/4 {
		t.Fatalf("resident chaining still ships data: job1 sent %dB, job2 sent %dB", st1.RemoteBytesOut, st2.RemoteBytesOut)
	}

	// Bit-identity against the memory backend's chained dataflow.
	memCfg := Config{Mappers: 4, Reducers: 4, Name: "self-step"}
	m1, _, err := RunDS(ctx, memCfg, PartitionDataset(ringInput(), 4), selfMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := RunDS(ctx, memCfg, m1, selfMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds2.Materialize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds2.Collect(), m2.Collect()) {
		t.Fatal("chained dist output diverges from memory")
	}
	ds1.Recycle()
	ds2.Recycle()
}

// TestDistChainedCrossTraffic runs a chained job that mixes identity
// routes with ring messages: output must stay bit-identical to the
// memory backend and the routing split must match.
func TestDistChainedCrossTraffic(t *testing.T) {
	cl := startTestCluster(t, 2)
	cfg := distCfg4(cl, "ring-step")
	ctx := context.Background()

	run := func(cfg Config) ([]Pair[int32, int64], *Stats) {
		t.Helper()
		ds1, _, err := RunDS(ctx, cfg, PartitionDataset(ringInput(), cfg.reducers()), ringMap, ringReduce)
		if err != nil {
			t.Fatal(err)
		}
		ds2, st2, err := RunDS(ctx, cfg, ds1, ringMap, ringReduce)
		if err != nil {
			t.Fatal(err)
		}
		out := ds2.Collect()
		ds1.Recycle()
		ds2.Recycle()
		return out, st2
	}
	dist, dstats := run(cfg)
	mem, mstats := run(Config{Mappers: 4, Reducers: 4, Name: "ring-step"})
	if !reflect.DeepEqual(dist, mem) {
		t.Fatal("chained ring job diverges between dist and memory")
	}
	if dstats.LocalRouted != mstats.LocalRouted || dstats.LocalRouted == 0 {
		t.Fatalf("identity-routing split differs: dist local=%d, memory local=%d",
			dstats.LocalRouted, mstats.LocalRouted)
	}
	if dstats.CrossRouted != mstats.CrossRouted {
		t.Fatalf("cross-routing split differs: dist cross=%d, memory cross=%d",
			dstats.CrossRouted, mstats.CrossRouted)
	}
}

// TestDistDroppedOutputReleasesResidency: a cluster outlives the jobs
// it runs, so a job whose output the engine drops — RunJobDS when the
// driver's round budget refuses the job, Run once it has collected the
// records — must leave no residency record on the coordinator and no
// partition on a worker.
func TestDistDroppedOutputReleasesResidency(t *testing.T) {
	cl := startTestCluster(t, 2)
	resident := func() int {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return len(cl.residency)
	}
	ctx := context.Background()
	d := NewDriver(distCfg4(cl, "ring-step"))
	d.MaxRounds = 1
	first, err := RunJobDS(ctx, d, "ring-step", PartitionDataset(ringInput(), d.Partitions()), ringMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}
	before := resident()
	if _, err := RunJobDS(ctx, d, "ring-step", first, ringMap, ringReduce); !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("second job under MaxRounds 1: err = %v, want ErrRoundLimit", err)
	}
	if got := resident(); got != before {
		t.Fatalf("the refused job left %d residency records, %d before it ran", got, before)
	}
	first.Recycle()

	before = resident()
	if _, _, err := Run(ctx, distCfg4(cl, "ring-step"), ringInput(), ringMap, ringReduce); err != nil {
		t.Fatal(err)
	}
	if got := resident(); got != before {
		t.Fatalf("Run left %d residency records, %d before it ran", got, before)
	}
	coordinator, workers, err := cl.ResidentLeft()
	if err != nil {
		t.Fatal(err)
	}
	if coordinator != 0 || workers != 0 {
		t.Fatalf("%d resident datasets registered on the coordinator and %d partitions on the workers after every output was dropped", coordinator, workers)
	}
}

// TestDistParamsReachWorkers pins the DistParams channel: the worker
// factory rebuilds the reduce from the per-job blob.
func TestDistParamsReachWorkers(t *testing.T) {
	cl := startTestCluster(t, 2)
	cfg := distCfg(cl, "param-add")
	cfg.DistParams = []byte{42}
	out, _, err := Run(context.Background(), cfg, ringInput(),
		forwardMap[int32, int64],
		func(k int32, vs []int64, out Emitter[int32, int64]) error { return nil }, // ignored: workers run the registered reduce
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out {
		if want := int64(p.Key) + 3 + 42; p.Value != want {
			t.Fatalf("key %d: got %d, want %d (offset not applied)", p.Key, p.Value, want)
		}
	}
}

// TestDistRefusesOlderProtoWorker: a worker built before the last wire
// change (a Proto 17 worker reads a mode byte and a split count in front
// of the job header's partition count, and a job-done without pool
// deltas, so the two would misparse each other's frames)
// dials a current coordinator and is refused at the hello, with both
// versions named — never paired and left to misparse a frame.
func TestDistRefusesOlderProtoWorker(t *testing.T) {
	leakcheck.Check(t)
	var wg sync.WaitGroup
	_, err := StartDistCluster(1, DistClusterOptions{
		Timeout: 30 * time.Second,
		OnListen: func(addr string) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Error(err)
					return
				}
				conn := remote.NewConn(nc)
				defer conn.Close()
				hello := remote.AppendUvarint([]byte{byte(remote.MsgHello)}, 17)
				if err := conn.WriteFrame(append(hello, 0)); err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.ReadFrame(); err == nil {
					t.Error("coordinator answered an older-protocol hello instead of hanging up")
				}
			}()
		},
	})
	wg.Wait()
	const want = "protocol version mismatch: worker speaks 17, coordinator 18"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("StartDistCluster with an older-protocol worker: err = %v, want %q", err, want)
	}
}

// TestDistUnregisteredJobFails pins the failure mode of a missing
// registration: a clear error, not a hang or a decode mess.
func TestDistUnregisteredJobFails(t *testing.T) {
	cl := startTestCluster(t, 1)
	cfg := distCfg(cl, "never-registered")
	_, _, err := Run(context.Background(), cfg, ringInput(),
		forwardMap[int32, int64], ringReduce)
	if err == nil || !strings.Contains(err.Error(), "no dist job registered") {
		t.Fatalf("unregistered job: got %v", err)
	}
}

// TestDistReduceErrorSurfaces pins user-function error propagation from
// a worker.
func TestDistReduceErrorSurfaces(t *testing.T) {
	cl := startTestCluster(t, 2)
	cfg := distCfg(cl, "boom-reduce")
	_, _, err := Run(context.Background(), cfg, ringInput(),
		forwardMap[int32, int64], ringReduce)
	if err == nil || !strings.Contains(err.Error(), "boom on key 7") {
		t.Fatalf("worker reduce error lost: %v", err)
	}
	if cl.Err() == nil {
		t.Fatal("failed job left the cluster marked healthy")
	}
}

// TestDistChainedMapErrorSurfaces pins the failure path of a
// worker-side map: the coordinator's flush barrier waits on every
// worker's map-done, so a silently dropped map failure would hang the
// job forever. The error must surface from the chained RunDS promptly.
func TestDistChainedMapErrorSurfaces(t *testing.T) {
	cl := startTestCluster(t, 2)
	ctx := context.Background()
	// The first job succeeds and leaves its output resident on the
	// workers; the chained second job maps it there with a map that fails.
	ds1, _, err := RunDS(ctx, distCfg4(cl, "self-step"), PartitionDataset(ringInput(), 4),
		selfMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}
	cfg := distCfg4(cl, "map-boom")
	done := make(chan error, 1)
	go func() {
		_, _, err := RunDS(ctx, cfg, ds1, selfMap, ringReduce)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker-side map failure hung the chained job")
	}
	if err == nil || !strings.Contains(err.Error(), "map boom on key 11") {
		t.Fatalf("worker map error lost: %v", err)
	}
}

// TestDistWorkerDisconnectMidShuffle simulates a worker vanishing while
// buckets stream: a rogue peer completes the handshake, reads the job
// start, then hangs up. The coordinator must recover — run the attempt
// to its end on the survivor and drop its output, reassign the rogue's
// partitions to the survivor, and retry — so the job completes
// bit-identical to the memory backend, with nothing left waiting on the
// flush barrier.
func TestDistWorkerDisconnectMidShuffle(t *testing.T) {
	var wg sync.WaitGroup
	cl, err := StartDistCluster(2, DistClusterOptions{
		Timeout: 30 * time.Second,
		OnListen: func(addr string) {
			wg.Add(2)
			go func() {
				defer wg.Done()
				ServeDistWorker(context.Background(), addr)
			}()
			go func() { // rogue worker
				defer wg.Done()
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Error(err)
					return
				}
				conn := remote.NewConn(nc)
				if err := remote.Hello(conn, false); err != nil {
					return
				}
				if _, err := remote.AwaitWelcome(conn); err != nil {
					return
				}
				conn.ReadFrame() // the job start
				conn.Close()     // die mid-shuffle
			}()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cl.Close(); wg.Wait() }()

	cfg := distCfg(cl, "eq-int32")
	cfg.Reducers = 4
	type result struct {
		out []Pair[int32, int64]
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, _, err := Run(context.Background(), cfg, int32Input(), int32Map, int32Reduce)
		done <- result{out, err}
	}()
	var got []Pair[int32, int64]
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("worker disconnect not recovered: %v", r.err)
		}
		got = r.out
	case <-time.After(30 * time.Second):
		t.Fatal("worker disconnect hung the job")
	}

	want, _, err := Run(context.Background(),
		Config{Mappers: 4, Reducers: 4, Name: "eq-int32"},
		int32Input(), int32Map, int32Reduce)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered run diverges from memory backend")
	}
	if rs := cl.RecoveryStats(); rs.WorkersLost < 1 || rs.Recoveries < 1 {
		t.Fatalf("recovery stats report lost=%d retried=%d, want >= 1 each", rs.WorkersLost, rs.Recoveries)
	}
}

// TestDistKilledWorkerProcess is the end-to-end kill test: two real
// worker processes (this test binary re-executed via MR_DIST_TEST_WORKER),
// one SIGKILLed mid-job. The run must complete on the survivor with
// output bit-identical to the memory backend, and the cluster must keep
// accepting jobs afterwards.
func TestDistKilledWorkerProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartDistCluster(2, DistClusterOptions{
		Timeout: 30 * time.Second,
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

	go func() {
		time.Sleep(300 * time.Millisecond)
		cl.procs[0].Process.Kill()
	}()
	cfg := distCfg(cl, "slow-reduce")
	type result struct {
		out []Pair[int32, int64]
		err error
	}
	done := make(chan result, 1)
	slowJob := func() ([]Pair[int32, int64], error) {
		out, _, err := Run(context.Background(), cfg, ringInput(),
			forwardMap[int32, int64], ringReduce)
		return out, err
	}
	go func() {
		out, err := slowJob()
		done <- result{out, err}
	}()
	var got []Pair[int32, int64]
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("killed worker not recovered: %v", r.err)
		}
		got = r.out
	case <-time.After(60 * time.Second):
		t.Fatal("killed worker hung the job")
	}

	// The registered "slow-reduce" emits (key, group size); mirror it on
	// the memory backend for the bit-identity check.
	want, _, err := Run(context.Background(),
		Config{Mappers: 4, Reducers: 3, Name: "slow-reduce"},
		ringInput(), forwardMap[int32, int64],
		func(k int32, vs []int64, out Emitter[int32, int64]) error {
			out.Emit(k, int64(len(vs)))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered run diverges from memory backend")
	}
	if rs := cl.RecoveryStats(); rs.WorkersLost < 1 || rs.Recoveries < 1 {
		t.Fatalf("recovery stats report lost=%d retried=%d, want >= 1 each", rs.WorkersLost, rs.Recoveries)
	}

	// The cluster latched the round, not itself: it must still run jobs
	// on the survivor.
	if _, err := slowJob(); err != nil {
		t.Fatalf("recovered cluster rejected a follow-up job: %v", err)
	}
}

// TestDistCloseReapsWedgedWorker pins the shutdown bound: a worker
// process frozen with SIGSTOP keeps its socket open and its exit
// pending forever, so an unbounded Wait in Close would hang the
// coordinator after an otherwise successful run. Close must escalate to
// a kill within its grace and return.
func TestDistCloseReapsWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartDistCluster(2, DistClusterOptions{
		Timeout: 30 * time.Second,
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
	if _, _, err := Run(context.Background(), distCfg(cl, "eq-int32"),
		int32Input(), int32Map, int32Reduce); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	if err := cl.procs[0].Process.Signal(syscall.SIGSTOP); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	// SIGSTOP is delivered asynchronously: Signal returning does not
	// mean the process has stopped, and a worker thread still running
	// can read Close's MsgBye and exit cleanly — leaving no wedged
	// worker to reap. Wait until the kernel reports the stop.
	if err := awaitStopped(cl.procs[0].Process.Pid, 10*time.Second); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- cl.Close() }()
	select {
	case err := <-closed:
		// The frozen worker was killed at the grace boundary; Close
		// reports that instead of pretending the shutdown was clean.
		if err == nil {
			t.Fatal("Close reported a clean shutdown despite killing a wedged worker")
		}
		t.Logf("wedged worker surfaced: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung on a wedged worker process")
	}
}

// awaitStopped polls /proc/<pid>/stat until the process state (the
// field after the parenthesised command name) is T, stopped by a signal.
func awaitStopped(pid int, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return fmt.Errorf("observing worker %d: %w", pid, err)
		}
		if i := strings.LastIndexByte(string(stat), ')'); i >= 0 && strings.HasPrefix(string(stat[i+1:]), " T") {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %d not stopped %v after SIGSTOP: %s", pid, within, stat)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDistStartupStalledHandshake pins the handshake deadline: a spawn
// that connects and then wedges before sending its hello must fail
// StartDistCluster at Timeout, not hang it forever.
func TestDistStartupStalledHandshake(t *testing.T) {
	quit := make(chan struct{})
	t.Cleanup(func() { close(quit) })
	done := make(chan error, 1)
	go func() {
		cl, err := StartDistCluster(1, DistClusterOptions{
			Timeout: 1 * time.Second,
			OnListen: func(addr string) {
				go func() { // wedged worker: dials, then goes silent
					nc, err := net.Dial("tcp", addr)
					if err != nil {
						return
					}
					defer nc.Close()
					<-quit
				}()
			},
		})
		if err == nil {
			cl.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled handshake produced a cluster")
		}
		t.Logf("stalled handshake surfaced: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("stalled handshake hung StartDistCluster")
	}
}

// BenchmarkDistShuffle measures a full Run job on two loopback
// workers: the cost of encode + TCP + decode + remote group-sort-reduce
// + the result fetch, comparable with
// BenchmarkShuffleHeavy on the local backends. The sched case arms the
// health monitor (heartbeats and the monitor's ticks) on an entirely
// healthy cluster; nosched turns it off. The delta is the idle overhead
// of health monitoring.
func BenchmarkDistShuffle(b *testing.B) {
	for _, bench := range []struct {
		name string
		hb   time.Duration
	}{
		{"sched", 50 * time.Millisecond},
		{"nosched", -1},
	} {
		b.Run(bench.name, func(b *testing.B) {
			cl := startSchedCluster(b, 2, DistClusterOptions{
				Timeout:        30 * time.Second,
				HeartbeatEvery: bench.hb,
			}, nil)
			cfg := distCfg4(cl, "eq-int32")
			input := int32Input()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Run(context.Background(), cfg, input, int32Map, int32Reduce); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
