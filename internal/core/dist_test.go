package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/leakcheck"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/remote"
)

// startWorkers runs n in-process dist workers over loopback TCP; the
// worker goroutines share this process's registry, so RegisterDistJobs
// below arms them with the same graph the coordinator side uses —
// exactly what a re-executed CLI worker does after loading the graph.
func startWorkers(t *testing.T, n int) *mapreduce.DistCluster {
	return startWorkersOpts(t, n, mapreduce.DistClusterOptions{Timeout: 30 * time.Second}, nil)
}

// startWorkersOpts is startWorkers with cluster options and per-session
// worker options (wopts(i) configures the i-th worker goroutine; worker
// IDs are assigned in accept order, so i only distinguishes sessions).
// The test fails if a goroutine outlives the cluster's teardown.
func startWorkersOpts(t *testing.T, n int, opts mapreduce.DistClusterOptions, wopts func(i int) mapreduce.DistWorkerOptions) *mapreduce.DistCluster {
	t.Helper()
	leakcheck.Check(t) // registered first so it runs after the teardown below
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	opts.OnListen = func(addr string) {
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				var o mapreduce.DistWorkerOptions
				if wopts != nil {
					o = wopts(i)
				}
				mapreduce.ServeDistWorkerOpts(ctx, addr, o)
			}()
		}
	}
	cl, err := mapreduce.StartDistCluster(n, opts)
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

// TestDistMatchingBitIdenticalToMemory is the tentpole's acceptance
// gate at the algorithm level: every MapReduce matching algorithm must
// produce a byte-identical matching on the dist backend (2 workers over
// loopback) and the memory backend, for the same seed and partition
// count — value bit for bit, edges id for id, round for round.
func TestDistMatchingBitIdenticalToMemory(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 16, NumConsumers: 12, EdgeProb: 0.4,
		MaxWeight: 3, MaxCapacity: 3, Seed: 7,
	})
	RegisterDistJobs(g)
	cl := startWorkers(t, 2)
	ctx := context.Background()

	distMR := mapreduce.Config{
		Mappers: 2, Reducers: 2,
		Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
		Dist:    cl,
	}
	memMR := mapreduce.Config{Mappers: 2, Reducers: 2}

	type runner struct {
		name string
		run  func(mr mapreduce.Config) (*Result, error)
	}
	runners := []runner{
		{"greedymr", func(mr mapreduce.Config) (*Result, error) {
			return GreedyMR(ctx, g.Clone(), GreedyMROptions{MR: mr})
		}},
		{"stackmr", func(mr mapreduce.Config) (*Result, error) {
			return StackMR(ctx, g.Clone(), StackOptions{MR: mr, Eps: 1, Seed: 5})
		}},
		{"stackgreedymr", func(mr mapreduce.Config) (*Result, error) {
			return StackGreedyMR(ctx, g.Clone(), StackOptions{MR: mr, Eps: 0.5, Seed: 5})
		}},
		{"stackmrstrict", func(mr mapreduce.Config) (*Result, error) {
			return StackMRStrict(ctx, g.Clone(), StackOptions{MR: mr, Eps: 1, Seed: 5})
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			mem, err := r.run(memMR)
			if err != nil {
				t.Fatalf("memory: %v", err)
			}
			dist, err := r.run(distMR)
			if err != nil {
				t.Fatalf("dist: %v", err)
			}
			if mem.Matching.Value() != dist.Matching.Value() {
				t.Fatalf("value diverges: memory %v, dist %v", mem.Matching.Value(), dist.Matching.Value())
			}
			if !reflect.DeepEqual(mem.Matching.Edges(), dist.Matching.Edges()) {
				t.Fatalf("matched edges diverge:\nmemory %v\ndist   %v", mem.Matching.Edges(), dist.Matching.Edges())
			}
			if mem.Rounds != dist.Rounds {
				t.Fatalf("rounds diverge: memory %d, dist %d", mem.Rounds, dist.Rounds)
			}
			if dist.Shuffle.RemoteBytesOut == 0 {
				t.Fatal("dist run reports no remote traffic — did the jobs really shard?")
			}
		})
	}
}

// TestDistMatchingSurvivesWorkerLoss extends the acceptance gate to the
// recovery path: every MapReduce matching algorithm runs on a cluster
// whose connection to one worker is severed mid-shuffle at a
// seed-derived frame (indistinguishable from that worker being
// SIGKILLed). The attempt in flight runs to its end on the survivor and
// is retried, and the recovered matching must still be bit-identical to
// the fault-free memory run — value, edges, and round count.
func TestDistMatchingSurvivesWorkerLoss(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 16, NumConsumers: 12, EdgeProb: 0.4,
		MaxWeight: 3, MaxCapacity: 3, Seed: 11,
	})
	RegisterDistJobs(g)
	ctx := context.Background()
	memMR := mapreduce.Config{Mappers: 2, Reducers: 2}

	type runner struct {
		name string
		run  func(mr mapreduce.Config) (*Result, error)
	}
	runners := []runner{
		{"greedymr", func(mr mapreduce.Config) (*Result, error) {
			return GreedyMR(ctx, g.Clone(), GreedyMROptions{MR: mr})
		}},
		{"stackmr", func(mr mapreduce.Config) (*Result, error) {
			return StackMR(ctx, g.Clone(), StackOptions{MR: mr, Eps: 1, Seed: 5})
		}},
		{"stackgreedymr", func(mr mapreduce.Config) (*Result, error) {
			return StackGreedyMR(ctx, g.Clone(), StackOptions{MR: mr, Eps: 0.5, Seed: 5})
		}},
		{"stackmrstrict", func(mr mapreduce.Config) (*Result, error) {
			return StackMRStrict(ctx, g.Clone(), StackOptions{MR: mr, Eps: 1, Seed: 5})
		}},
	}
	for i, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			mem, err := r.run(memMR)
			if err != nil {
				t.Fatalf("memory: %v", err)
			}

			// A fresh cluster per algorithm: a severed worker stays dead
			// for the cluster's lifetime.
			cl := startWorkers(t, 2)
			seed := int64(31 + i)
			f := &remote.Fault{Op: remote.FaultSever}
			if i%2 == 0 {
				f.AfterWrites = remote.FaultPoint(seed, 2, 20)
			} else {
				f.AfterReads = remote.FaultPoint(seed, 2, 12)
			}
			if err := cl.InjectFault(i%2, f); err != nil {
				t.Fatal(err)
			}
			distMR := mapreduce.Config{
				Mappers: 2, Reducers: 2,
				Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
				Dist:    cl,
			}
			dist, err := r.run(distMR)
			if err != nil {
				t.Fatalf("dist with injected worker loss: %v", err)
			}
			if mem.Matching.Value() != dist.Matching.Value() {
				t.Fatalf("value diverges: memory %v, dist %v", mem.Matching.Value(), dist.Matching.Value())
			}
			if !reflect.DeepEqual(mem.Matching.Edges(), dist.Matching.Edges()) {
				t.Fatalf("matched edges diverge:\nmemory %v\ndist   %v", mem.Matching.Edges(), dist.Matching.Edges())
			}
			if mem.Rounds != dist.Rounds {
				t.Fatalf("rounds diverge: memory %d, dist %d", mem.Rounds, dist.Rounds)
			}
			// The loss must be observed, but how the cluster recovers
			// depends on where the sever lands: a death mid-job loses the
			// attempt, which runs to its end on the survivor and is
			// retried (Recoveries), while a death caught at materialize
			// time is restored on the survivor from its lineage and
			// fetched there, and the next job schedules around the dead
			// worker — no attempt is wasted, so Recoveries legitimately
			// stays zero.
			rs := cl.RecoveryStats()
			if rs.WorkersLost < 1 {
				t.Fatalf("recovery stats report lost=%d, want >= 1", rs.WorkersLost)
			}
			t.Logf("%s: lost=%d retried=%d reseeded=%d", r.name, rs.WorkersLost, rs.Recoveries, rs.Reseeded)
		})
	}
}

// TestDistMatchingSurvivesStraggler extends the acceptance gate to the
// health monitor: every MapReduce matching algorithm runs on a cluster
// where one worker misbehaves without dying, in two modes. In "slow"
// mode the worker holds a frame of the first job it reads for longer
// than the death window (24 heartbeat intervals of silence) while its
// heartbeats keep flowing — a responsive straggler, not a corpse: the
// job waits on it past the window, and it must never be declared dead.
// In "stall" mode the worker freezes at a seed-derived frame with its
// socket open (the gray failure no transport error reports); the
// heartbeat timeout must declare it lost so the job completes on the
// healthy worker. Both modes must finish inside a wall-clock budget and
// stay bit-identical to the fault-free memory run.
func TestDistMatchingSurvivesStraggler(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 16, NumConsumers: 12, EdgeProb: 0.4,
		MaxWeight: 3, MaxCapacity: 3, Seed: 13,
	})
	RegisterDistJobs(g)
	ctx := context.Background()
	memMR := mapreduce.Config{Mappers: 2, Reducers: 2}

	schedOpts := mapreduce.DistClusterOptions{
		Timeout:        30 * time.Second,
		HeartbeatEvery: 20 * time.Millisecond,
		ReplyTimeout:   2 * time.Second,
	}
	// The monitor declares a worker the job waits on lost after 24
	// heartbeat intervals of silence; the slow worker's hold exceeds that.
	deathWindow := 24 * schedOpts.HeartbeatEvery
	slowHold := 30 * schedOpts.HeartbeatEvery
	faulty := func(f *remote.Fault) func(i int) mapreduce.DistWorkerOptions {
		return func(i int) mapreduce.DistWorkerOptions {
			if i != 0 {
				return mapreduce.DistWorkerOptions{}
			}
			return mapreduce.DistWorkerOptions{Fault: f}
		}
	}

	type runner struct {
		name string
		// stallSeed picks the FaultPoint frame the stall mode freezes
		// at. Each algorithm has its own frame sequence, and the frame
		// must land mid-job: a stall during an inter-job fetch is
		// detected by the fetch deadline, not the heartbeat timeout — a
		// different path, pinned by the worker-loss test above.
		stallSeed int64
		run       func(mr mapreduce.Config) (*Result, error)
	}
	runners := []runner{
		{"greedymr", 2, func(mr mapreduce.Config) (*Result, error) {
			return GreedyMR(ctx, g.Clone(), GreedyMROptions{MR: mr})
		}},
		{"stackmr", 3, func(mr mapreduce.Config) (*Result, error) {
			return StackMR(ctx, g.Clone(), StackOptions{MR: mr, Eps: 1, Seed: 5})
		}},
		{"stackgreedymr", 4, func(mr mapreduce.Config) (*Result, error) {
			return StackGreedyMR(ctx, g.Clone(), StackOptions{MR: mr, Eps: 0.5, Seed: 5})
		}},
		{"stackmrstrict", 4, func(mr mapreduce.Config) (*Result, error) {
			return StackMRStrict(ctx, g.Clone(), StackOptions{MR: mr, Eps: 1, Seed: 5})
		}},
	}
	modes := []struct {
		name  string
		fault func(seed int64) *remote.Fault
		// alive: a responsive straggler must never be declared dead; a
		// stalled worker must be, by the heartbeat timeout.
		alive bool
	}{
		{"slow", func(int64) *remote.Fault {
			// The second frame the worker reads belongs to the first job
			// in every algorithm (its announce or its input); a read
			// delay holds the job without stopping the worker's pongs.
			return &remote.Fault{Op: remote.FaultDelay, AfterReads: 2, Delay: slowHold}
		}, true},
		{"stall", func(seed int64) *remote.Fault {
			return &remote.Fault{Op: remote.FaultStall, AfterWrites: remote.FaultPoint(seed, 2, 8)}
		}, false},
	}

	// The budget prices detection, not luck: a stalled worker costs one
	// heartbeat timeout (~480ms here) before its share re-executes, so a
	// full matching run staying under the budget means no round waited
	// out a silent worker for longer than that.
	const budget = 15 * time.Second
	for _, m := range modes {
		for _, r := range runners {
			t.Run(m.name+"/"+r.name, func(t *testing.T) {
				mem, err := r.run(memMR)
				if err != nil {
					t.Fatalf("memory: %v", err)
				}
				// A fresh cluster per algorithm: a worker declared lost
				// stays lost for the cluster's lifetime.
				cl := startWorkersOpts(t, 2, schedOpts, faulty(m.fault(r.stallSeed)))
				distMR := mapreduce.Config{
					Mappers: 2, Reducers: 2,
					Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
					Dist:    cl,
				}
				start := time.Now()
				dist, err := r.run(distMR)
				elapsed := time.Since(start)
				if err != nil {
					t.Fatalf("dist with straggling worker: %v", err)
				}
				if elapsed > budget {
					t.Fatalf("run took %v, budget %v", elapsed, budget)
				}
				if mem.Matching.Value() != dist.Matching.Value() {
					t.Fatalf("value diverges: memory %v, dist %v", mem.Matching.Value(), dist.Matching.Value())
				}
				if !reflect.DeepEqual(mem.Matching.Edges(), dist.Matching.Edges()) {
					t.Fatalf("matched edges diverge:\nmemory %v\ndist   %v", mem.Matching.Edges(), dist.Matching.Edges())
				}
				if mem.Rounds != dist.Rounds {
					t.Fatalf("rounds diverge: memory %d, dist %d", mem.Rounds, dist.Rounds)
				}
				rs := cl.RecoveryStats()
				if m.alive && rs.WorkersLost != 0 {
					t.Fatalf("a responsive straggler was declared dead (lost=%d)", rs.WorkersLost)
				}
				if m.alive {
					held := 0
					for i, st := range dist.RoundStats {
						if st.MapWall+st.ReduceWall > dist.RoundStats[held].MapWall+dist.RoundStats[held].ReduceWall {
							held = i
						}
					}
					wall := dist.RoundStats[held].MapWall + dist.RoundStats[held].ReduceWall
					t.Logf("job %d (%s) waited %v on the slow worker, whose delays in it sum to %v; death window %v",
						held, dist.RoundStats[held].Name, wall, slowHold, deathWindow)
					if wall <= deathWindow {
						t.Fatalf("no job waited on the slow worker past the %v death window (longest job %v): the hold no longer lands inside a job", deathWindow, wall)
					}
				}
				if !m.alive && rs.HeartbeatTimeouts < 1 {
					t.Fatalf("the stalled worker was never declared lost by heartbeat timeout (timeouts=%d)", rs.HeartbeatTimeouts)
				}
				t.Logf("%s/%s: %v, hb timeouts=%d lost=%d retried=%d", m.name, r.name, elapsed,
					rs.HeartbeatTimeouts, rs.WorkersLost, rs.Recoveries)
			})
		}
	}
}

// TestDistGreedyMRStaysResident pins GreedyMR's dataflow on the dist
// backend: the state is worker-resident from the first round to the
// fixed point. Every round — round 0 included, whose input the workers
// built where it resides (mapreduce.BuildDS) — maps on the workers (no
// coordinator map wall, every live node's self message identity-routed
// there), nothing is re-seeded on a fault-free run, the shuffle is record
// for record the memory backend's, and what crosses the wire per shuffled
// record stays under a ceiling: the build frames, cross-worker
// proposals and the matched edge ids, but no adjacency list on its way
// to or from the coordinator — not even the round-0 view's. The result is the memory backend's, bit for bit.
func TestDistGreedyMRStaysResident(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 400, NumConsumers: 80, EdgeProb: 0.05,
		MaxWeight: 4, MaxCapacity: 6, Seed: 11,
	})
	RegisterDistJobs(g)
	cl := startWorkers(t, 2)
	ctx := context.Background()
	mem, err := GreedyMR(ctx, g, GreedyMROptions{MR: mapreduce.Config{Mappers: 4, Reducers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := GreedyMR(ctx, g, GreedyMROptions{MR: mapreduce.Config{
		Mappers: 4, Reducers: 4,
		Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
		Dist:    cl,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Matching, mem.Matching) || dist.Rounds != mem.Rounds ||
		!reflect.DeepEqual(dist.ValueTrace, mem.ValueTrace) {
		t.Fatalf("dist diverges from memory: %d rounds, value %v; memory %d rounds, value %v",
			dist.Rounds, dist.Matching.Value(), mem.Rounds, mem.Matching.Value())
	}
	if dist.Rounds < 3 {
		t.Fatalf("degenerate instance: %d rounds", dist.Rounds)
	}
	for i, st := range dist.RoundStats {
		if st.MapWall != 0 {
			t.Errorf("round %d mapped on the coordinator for %v", i, st.MapWall)
		}
		if st.LocalRouted != st.MapInputRecords || st.MapInputRecords == 0 {
			t.Errorf("round %d: %d self messages identity-routed on the workers, %d live nodes", i, st.LocalRouted, st.MapInputRecords)
		}
		if st.ReseededPartitions != 0 {
			t.Errorf("round %d re-seeded %d partitions on a fault-free run", i, st.ReseededPartitions)
		}
		if want := mem.RoundStats[i].ShuffleRecords; st.ShuffleRecords != want {
			t.Errorf("round %d shuffled %d records, memory %d", i, st.ShuffleRecords, want)
		}
	}
	if rs := cl.RecoveryStats(); rs.Reseeded != 0 || rs.Recoveries != 0 {
		t.Errorf("fault-free run reports reseeded=%d recoveries=%d", rs.Reseeded, rs.Recoveries)
	}
	// Measured 2.7 B/record here, also with the pool deltas every
	// job-done carries. Earlier designs moved state: 7.1 B/record while
	// every round's output was mirrored on the coordinator, 13.1 while the
	// coordinator built the round-0 view and seeded it onto the workers,
	// 25.0 while it fetched and mapped every round itself.
	const ceiling = 3.0
	perRecord := float64(dist.Shuffle.RemoteBytesIn+dist.Shuffle.RemoteBytesOut) / float64(dist.Shuffle.ShuffleRecords)
	t.Logf("%d rounds, %d shuffled records, %.1f wire bytes per record", dist.Rounds, dist.Shuffle.ShuffleRecords, perRecord)
	if perRecord > ceiling {
		t.Errorf("%.1f wire bytes per shuffled record (ceiling %.1f): state is travelling between rounds again", perRecord, ceiling)
	}
}

// TestDistGreedyMRSeveredAroundFlush sweeps the frame at which the
// coordinator's connection to one of two workers is severed across the
// first rounds of a worker-resident GreedyMR run, before and after a
// round's flush barrier. Wherever the sever lands, the attempt runs to its
// end on the survivor, whose reduce consumes its input, so the retry
// restores every partition (see mapreduce.DistCluster) — never only the
// dead worker's share. Every run must end bit-identical to memory —
// matching, rounds and value trace.
func TestDistGreedyMRSeveredAroundFlush(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 60, NumConsumers: 30, EdgeProb: 0.2,
		MaxWeight: 3, MaxCapacity: 3, Seed: 5,
	})
	RegisterDistJobs(g)
	ctx := context.Background()
	mem, err := GreedyMR(ctx, g, GreedyMROptions{MR: mapreduce.Config{Mappers: 4, Reducers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var share, whole int
	for k := 1; k <= 16; k++ {
		cl := startWorkers(t, 2)
		if err := cl.InjectFault(1, &remote.Fault{Op: remote.FaultSever, AfterReads: k}); err != nil {
			t.Fatal(err)
		}
		dist, err := GreedyMR(ctx, g, GreedyMROptions{MR: mapreduce.Config{
			Mappers: 4, Reducers: 4,
			Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
			Dist:    cl,
		}})
		if err != nil {
			t.Fatalf("sever at frame %d: %v", k, err)
		}
		if !reflect.DeepEqual(dist.Matching, mem.Matching) || dist.Rounds != mem.Rounds ||
			!reflect.DeepEqual(dist.ValueTrace, mem.ValueTrace) {
			t.Fatalf("sever at frame %d: dist diverges from memory (%d rounds, value %v; memory %d, %v)",
				k, dist.Rounds, dist.Matching.Value(), mem.Rounds, mem.Matching.Value())
		}
		rs := cl.RecoveryStats()
		if rs.WorkersLost != 1 {
			t.Fatalf("sever at frame %d was not observed: lost=%d", k, rs.WorkersLost)
		}
		switch rs.Reseeded {
		case 2: // worker 1's two of four partitions
			share++
		case 4:
			whole++
		}
	}
	t.Logf("16 sever points: %d restored the dead worker's share, %d the whole consumed input", share, whole)
	if share != 0 || whole == 0 {
		t.Fatalf("%d severs restored only the dead worker's share, %d the whole input: want none and some", share, whole)
	}
}

// TestDistLineageDeepRecompute: the coordinator holds no copy of
// GreedyMR's worker-resident rounds, so a worker lost late in the run
// takes partitions only its lineage can make again — the round jobs since
// the built node view, re-run on the survivor. The run finds how many
// protocol frames the coordinator reads from worker 1 over a whole run
// (the largest sever point that is ever reached), severs worker 1 at a
// frame in the last third of them, and must end bit-identical to memory
// — matching, rounds and value trace — with lost partitions restored.
func TestDistLineageDeepRecompute(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 60, NumConsumers: 30, EdgeProb: 0.2,
		MaxWeight: 3, MaxCapacity: 3, Seed: 5,
	})
	RegisterDistJobs(g)
	ctx := context.Background()
	mem, err := GreedyMR(ctx, g, GreedyMROptions{MR: mapreduce.Config{Mappers: 4, Reducers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	severedAt := func(k int) (*Result, mapreduce.RecoveryStats) {
		cl := startWorkers(t, 2)
		if err := cl.InjectFault(1, &remote.Fault{Op: remote.FaultSever, AfterReads: k}); err != nil {
			t.Fatal(err)
		}
		dist, err := GreedyMR(ctx, g, GreedyMROptions{MR: mapreduce.Config{
			Mappers: 4, Reducers: 4,
			Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
			Dist:    cl,
		}})
		if err != nil {
			t.Fatalf("sever at frame %d: %v", k, err)
		}
		return dist, cl.RecoveryStats()
	}
	lands := func(k int) bool {
		_, rs := severedAt(k)
		return rs.WorkersLost == 1
	}
	lo, hi := 1, 16 // a sever at frame lo is reached, at hi not (yet known)
	for lands(hi) {
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; lands(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	frames := lo
	k := frames - frames/6
	dist, rs := severedAt(k)
	if !reflect.DeepEqual(dist.Matching, mem.Matching) || dist.Rounds != mem.Rounds ||
		!reflect.DeepEqual(dist.ValueTrace, mem.ValueTrace) {
		t.Fatalf("sever at frame %d of %d: dist diverges from memory (%d rounds, value %v; memory %d, %v)",
			k, frames, dist.Rounds, dist.Matching.Value(), mem.Rounds, mem.Matching.Value())
	}
	retried := -1
	for i, st := range dist.RoundStats {
		if st.WorkerRecoveries > 0 && retried < 0 {
			retried = i
		}
	}
	t.Logf("sever at frame %d of %d: job %d of %d retried; lost=%d retried=%d reseeded=%d",
		k, frames, retried, dist.Rounds, rs.WorkersLost, rs.Recoveries, rs.Reseeded)
	if rs.WorkersLost != 1 || rs.Reseeded < 1 {
		t.Fatalf("sever at frame %d of %d: lost=%d reseeded=%d, want 1 and at least 1", k, frames, rs.WorkersLost, rs.Reseeded)
	}
}

// TestDistMaximalStagesMapOnWorkers pins the stack algorithms' dataflow on
// the dist backend: every maximal-matching stage, stack-update and
// stack-filter is a state job whose map runs where its input resides — on
// the workers, with no coordinator map wall. A layer's first stage maps
// over the flagged records the engine places for it, and every later
// stage, every later iteration and stack-filter over their predecessor's
// resident output: nothing returns to the coordinator between them and
// nothing is sent back. What those chained jobs move is the relayed flag
// and dual messages, the
// job frames and the reports, and that stays under a ceiling per shuffled
// record in each direction — measured 2.4 B in and 2.6–2.8 B out here,
// where fetching every cleanup output and stack-update's, placing them
// again and shipping the dense duals with every stack job cost 3.1–3.4 B
// in and 5.6–6.1 B out. Every job shuffles what the memory backend's does,
// record for record, nothing is re-seeded on a fault-free run, and the
// matching is the memory backend's.
func TestDistMaximalStagesMapOnWorkers(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 60, NumConsumers: 30, EdgeProb: 0.2,
		MaxWeight: 3, MaxCapacity: 3, Seed: 5,
	})
	RegisterDistJobs(g)
	cl := startWorkers(t, 2)
	ctx := context.Background()
	for _, algo := range []struct {
		name string
		run  func(context.Context, *graph.Bipartite, StackOptions) (*Result, error)
	}{
		{"stackmr", StackMR},
		{"stackgreedymr", StackGreedyMR},
		{"stackmrstrict", StackMRStrict},
	} {
		t.Run(algo.name, func(t *testing.T) {
			mem, err := algo.run(ctx, g, StackOptions{MR: mapreduce.Config{Mappers: 4, Reducers: 4}, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			dist, err := algo.run(ctx, g, StackOptions{Seed: 3, MR: mapreduce.Config{
				Mappers: 4, Reducers: 4,
				Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
				Dist:    cl,
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dist.Matching.EdgeIndexes(), mem.Matching.EdgeIndexes()) || dist.Rounds != mem.Rounds {
				t.Fatalf("dist diverges from memory: %d rounds, value %v; memory %d rounds, value %v",
					dist.Rounds, dist.Matching.Value(), mem.Rounds, mem.Matching.Value())
			}
			stages := 0
			var in, out, records int64 // over the jobs whose input is their predecessor's output
			for i, st := range dist.RoundStats {
				mm := strings.HasPrefix(st.Name, "mm-")
				if mm {
					stages++
				}
				if (mm || st.Name == "stack-update" || st.Name == "stack-filter") && st.MapWall != 0 {
					t.Errorf("job %d (%s) mapped on the coordinator for %v", i, st.Name, st.MapWall)
				}
				if st.Name == "stack-filter" || mm && (st.Name != "mm-marking" || i > 0 && dist.RoundStats[i-1].Name == "mm-cleanup") {
					in += st.RemoteBytesIn
					out += st.RemoteBytesOut
					records += st.ShuffleRecords
				}
				if want := mem.RoundStats[i].ShuffleRecords; st.ShuffleRecords != want {
					t.Errorf("job %d (%s) shuffled %d records, memory %d", i, st.Name, st.ShuffleRecords, want)
				}
				if st.ReseededPartitions != 0 {
					t.Errorf("job %d (%s) re-seeded %d partitions on a fault-free run", i, st.Name, st.ReseededPartitions)
				}
			}
			perIn, perOut := float64(in)/float64(records), float64(out)/float64(records)
			t.Logf("%d jobs, %d of them maximal-matching stages; the chained jobs shuffled %d records, %.2f wire bytes in and %.2f out per record",
				dist.Rounds, stages, records, perIn, perOut)
			if stages < 8 {
				t.Fatalf("degenerate instance: %d maximal-matching jobs", stages)
			}
			const inCeiling, outCeiling = 2.8, 3.4
			if perIn > inCeiling || perOut > outCeiling {
				t.Errorf("the chained jobs move %.2f B in and %.2f B out per shuffled record (ceilings %.1f, %.1f): records travel between them again",
					perIn, perOut, inCeiling, outCeiling)
			}
		})
	}
	if rs := cl.RecoveryStats(); rs.Reseeded != 0 || rs.Recoveries != 0 {
		t.Errorf("fault-free runs report reseeded=%d recoveries=%d", rs.Reseeded, rs.Recoveries)
	}
}

// TestDistPopJobsMapOnWorkers: the pop phases' jobs — stack-pop,
// strict-pop and StackMRStrict's sublayer filter — map on the dist
// workers, over records that carry what their maps read (a node's
// residual capacity, its edges' δ): no coordinator map wall, and the
// same shuffled, identity-routed and hashed records as the memory
// backend, job for job. Each job kind's bytes out, summed over its
// layers, stay under a ceiling.
func TestDistPopJobsMapOnWorkers(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 60, NumConsumers: 30, EdgeProb: 0.2,
		MaxWeight: 3, MaxCapacity: 3, Seed: 5,
	})
	RegisterDistJobs(g)
	cl := startWorkers(t, 2)
	ctx := context.Background()
	seen := make(map[string]int)
	bytesOut, bytesIn := make(map[string]int64), make(map[string]int64)
	for _, algo := range []struct {
		name string
		run  func(context.Context, *graph.Bipartite, StackOptions) (*Result, error)
	}{
		{"stackmr", StackMR},
		{"stackmrstrict", StackMRStrict},
	} {
		t.Run(algo.name, func(t *testing.T) {
			mem, err := algo.run(ctx, g, StackOptions{MR: mapreduce.Config{Mappers: 4, Reducers: 4}, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			dist, err := algo.run(ctx, g, StackOptions{Seed: 3, MR: mapreduce.Config{
				Mappers: 4, Reducers: 4,
				Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
				Dist:    cl,
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dist.Matching.EdgeIndexes(), mem.Matching.EdgeIndexes()) || dist.Rounds != mem.Rounds {
				t.Fatalf("dist diverges from memory: %d rounds, value %v; memory %d rounds, value %v",
					dist.Rounds, dist.Matching.Value(), mem.Rounds, mem.Matching.Value())
			}
			for i, st := range dist.RoundStats {
				if st.MapWall != 0 {
					t.Errorf("job %d (%s) mapped on the coordinator for %v", i, st.Name, st.MapWall)
				}
				switch st.Name {
				case "stack-pop", "strict-pop", "strict-sublayer-filter":
					seen[st.Name]++
					bytesOut[st.Name] += st.RemoteBytesOut
					bytesIn[st.Name] += st.RemoteBytesIn
				default:
					continue
				}
				want := mem.RoundStats[i]
				if st.ShuffleRecords != want.ShuffleRecords || st.LocalRouted != want.LocalRouted || st.CrossRouted != want.CrossRouted {
					t.Errorf("job %d (%s) shuffled %d records (local %d, cross %d), memory %d (%d, %d)", i, st.Name,
						st.ShuffleRecords, st.LocalRouted, st.CrossRouted, want.ShuffleRecords, want.LocalRouted, want.CrossRouted)
				}
			}
		})
	}
	t.Logf("jobs run: %v; bytes out %v, in %v", seen, bytesOut, bytesIn)
	// Measured 1,005, 949 and 237 bytes out here: the seeded node
	// records list each layer edge at both endpoints, and a pair bound
	// for another worker's partition is relayed through the coordinator.
	// While the coordinator mapped these jobs and sent each pair once,
	// straight to its owner, they were 581, 570 and 211.
	for _, c := range []struct {
		name    string
		ceiling int64
	}{{"stack-pop", 1100}, {"strict-pop", 1050}, {"strict-sublayer-filter", 260}} {
		if seen[c.name] == 0 {
			t.Errorf("degenerate instance: no %s job ran", c.name)
		}
		if bytesOut[c.name] > c.ceiling {
			t.Errorf("%s: %d bytes out (ceiling %d)", c.name, bytesOut[c.name], c.ceiling)
		}
	}
}

// TestDistPoolCountersReachStats: a dist job's Stats carry the buffer
// pool traffic of the workers that group-sorted and reduced it. Past its
// first round, a GreedyMR run on two workers recycles its round buffers
// out of the workers' pools, so a warm round reports pooled bytes.
func TestDistPoolCountersReachStats(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 60, NumConsumers: 30, EdgeProb: 0.2,
		MaxWeight: 3, MaxCapacity: 3, Seed: 5,
	})
	RegisterDistJobs(g)
	cl := startWorkers(t, 2)
	res, err := GreedyMR(context.Background(), g, GreedyMROptions{MR: mapreduce.Config{
		Mappers: 4, Reducers: 4,
		Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
		Dist:    cl,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundStats) < 3 {
		t.Fatalf("degenerate instance: %d rounds", len(res.RoundStats))
	}
	for i, st := range res.RoundStats[1:] {
		t.Logf("round %d: %d pooled bytes, %d misses", i+1, st.PooledBytes, st.PoolMisses)
		if st.PooledBytes <= 0 {
			t.Errorf("warm round %d reports %d pooled bytes: the workers' pool traffic is missing", i+1, st.PooledBytes)
		}
	}
}

// TestDistGreedyMRRebuildsLostView: a worker lost before the first
// round's flush barrier takes the round-0 node view it built with it. The
// attempt runs to its end on the survivor, whose reduce consumes its own
// two partitions, so the retry rebuilds all four on the survivor from the
// build recipe, and the run ends bit-identical to memory.
func TestDistGreedyMRRebuildsLostView(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 60, NumConsumers: 30, EdgeProb: 0.2,
		MaxWeight: 3, MaxCapacity: 3, Seed: 5,
	})
	RegisterDistJobs(g)
	ctx := context.Background()
	mem, err := GreedyMR(ctx, g, GreedyMROptions{MR: mapreduce.Config{Mappers: 4, Reducers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	cl := startWorkers(t, 2)
	// Worker 1's first two frames report its two built partitions; the
	// third is the first it sends in round 1, ahead of its map-done.
	if err := cl.InjectFault(1, &remote.Fault{Op: remote.FaultSever, AfterReads: 3}); err != nil {
		t.Fatal(err)
	}
	dist, err := GreedyMR(ctx, g, GreedyMROptions{MR: mapreduce.Config{
		Mappers: 4, Reducers: 4,
		Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
		Dist:    cl,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Matching, mem.Matching) || dist.Rounds != mem.Rounds ||
		!reflect.DeepEqual(dist.ValueTrace, mem.ValueTrace) {
		t.Fatalf("dist diverges from memory: %d rounds, value %v; memory %d rounds, value %v",
			dist.Rounds, dist.Matching.Value(), mem.Rounds, mem.Matching.Value())
	}
	if st := dist.RoundStats[0]; st.WorkerRecoveries != 1 || st.ReseededPartitions != 4 {
		t.Fatalf("round 1: recoveries=%d reseeded=%d, want 1 and all 4 partitions",
			st.WorkerRecoveries, st.ReseededPartitions)
	}
	if rs := cl.RecoveryStats(); rs.WorkersLost != 1 || rs.Reseeded != 4 {
		t.Fatalf("lost=%d reseeded=%d, want 1 and 4", rs.WorkersLost, rs.Reseeded)
	}
}

// TestDistGreedyMRViewRefusals: a worker builds GreedyMR's round-0 view
// only from the graph the coordinator has — the same node count, edge
// count and capacities — and only with a builder registered under the
// name asked for. Anything else is refused: the run fails, never hangs,
// and the error names what each side has.
func TestDistGreedyMRViewRefusals(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 60, NumConsumers: 30, EdgeProb: 0.2,
		MaxWeight: 3, MaxCapacity: 3, Seed: 5,
	})
	moreNodes := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 61, NumConsumers: 30, EdgeProb: 0.2,
		MaxWeight: 3, MaxCapacity: 3, Seed: 5,
	})
	moreEdges := g.Clone()
	moreEdges.AddEdge(moreEdges.ItemID(0), moreEdges.ConsumerID(0), 1)
	otherCaps := g.Clone()
	otherCaps.SetCapacity(otherCaps.ItemID(0), g.Capacity(g.ItemID(0))+1)
	keyOf := func(g *graph.Bipartite) viewKey {
		v, err := newNodeView(g, true)
		if err != nil {
			t.Fatal(err)
		}
		return v.key
	}
	mr := func(cl *mapreduce.DistCluster) mapreduce.Config {
		return mapreduce.Config{
			Mappers: 4, Reducers: 4,
			Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
			Dist:    cl,
		}
	}
	greedy := func(cl *mapreduce.DistCluster) error {
		_, err := GreedyMR(context.Background(), g, GreedyMROptions{MR: mr(cl)})
		return err
	}
	for _, tc := range []struct {
		name   string
		worker *graph.Bipartite
		run    func(cl *mapreduce.DistCluster) error
		want   []string
	}{
		{"node-count", moreNodes, greedy, []string{
			"the coordinator's graph has " + keyOf(g).String(), "this worker's has " + keyOf(moreNodes).String()}},
		{"edge-count", moreEdges, greedy, []string{
			"the coordinator's graph has " + keyOf(g).String(), "this worker's has " + keyOf(moreEdges).String()}},
		{"capacities", otherCaps, greedy, []string{
			"the coordinator's graph has " + keyOf(g).String(), "this worker's has " + keyOf(otherCaps).String()}},
		{"unregistered", g, func(cl *mapreduce.DistCluster) error {
			view, err := newNodeView(g, true)
			if err != nil {
				return err
			}
			_, err = mapreduce.BuildDS(mapreduce.NewDriver(mr(cl)), "greedymr-view-v0", view.key.params(), view.build)
			return err
		}, []string{`no dist build registered as "greedymr-view-v0"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			RegisterDistJobs(tc.worker)
			cl := startWorkers(t, 2)
			done := make(chan error, 1)
			go func() { done <- tc.run(cl) }()
			select {
			case err := <-done:
				t.Logf("refused: %v", err)
				for _, want := range tc.want {
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("err = %v, want it to contain %q", err, want)
					}
				}
			case <-time.After(30 * time.Second):
				t.Fatal("the refused build hung")
			}
		})
	}
	RegisterDistJobs(g)
}
