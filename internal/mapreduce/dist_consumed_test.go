package mapreduce

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/mapreduce/remote"
)

// The "mut-ring" job is the ring job with the two properties the ring
// tests lack and GreedyMR has: its reduce mutates memory reachable from
// its input (the state is a slice, forwarded to itself by reference and
// updated in place — "the reduce owns its values"), and it reports a few
// small values on the reduce side output. State is [round, acc]; a ring
// message is the one-element [acc].

func mutMap(k int32, st int64s, out Emitter[int32, int64s]) error {
	out.Emit(k, st)
	out.Emit((k+1)%ringN, int64s{st[1]})
	return nil
}

func mutReduce(k int32, vs []int64s, out Emitter[int32, int64s]) error {
	var st int64s
	var in int64
	for i, v := range vs {
		if len(v) == 1 {
			in = in*7 + v[0] + int64(i)
		} else {
			st = v
		}
	}
	st[1] = st[1]*31 + in + st[0]
	st[0]++
	out.Emit(k, st)
	if (int64(k)+st[0])%5 == 0 {
		out.(SideEmitter).EmitSide(uint64(k)<<8 | uint64(st[0]))
	}
	return nil
}

// registerMutRing registers the job and the builder of its entry state;
// the job's one parameter byte is a bit set of reduce partitions (of 4)
// whose keys reduce slowly, which lets a test hold one worker in its
// reduce phase while the others finish theirs.
func registerMutRing() {
	RegisterDistBuild("mut-input", func([]byte) (func(int, func(int32) bool) []Pair[int32, int64s], error) {
		return mutBuild, nil
	})
	RegisterDistJob("mut-ring", func(params []byte) (DistJob[int32, int64s, int32, int64s, int32, int64s], error) {
		var slow byte
		if len(params) == 1 {
			slow = params[0]
		}
		return DistJob[int32, int64s, int32, int64s, int32, int64s]{
			Map: mutMap,
			Reduce: func(k int32, vs []int64s, out Emitter[int32, int64s]) error {
				if slow&(1<<partitionIndex(k, 4)) != 0 {
					time.Sleep(200 * time.Microsecond)
				}
				return mutReduce(k, vs, out)
			},
		}, nil
	})
}

// mutBuild is the mut-input builder: each partition keeps the records of
// mutInput it owns.
func mutBuild(_ int, owns func(int32) bool) []Pair[int32, int64s] {
	var part []Pair[int32, int64s]
	for _, rec := range mutInput() {
		if owns(rec.Key) {
			part = append(part, rec)
		}
	}
	return part
}

func mutInput() []Pair[int32, int64s] {
	input := make([]Pair[int32, int64s], ringN)
	for i := range input {
		input[i] = P(int32(i), int64s{0, int64(i) + 3})
	}
	return input
}

// mutRun is what a chain of mut-ring rounds produced: the final state
// and every round's side output, sorted (its arrival order across
// partitions is not part of the contract).
type mutRun struct {
	final []Pair[int32, int64s]
	sides [][]uint64
}

// mutRounds chains rounds of mut-ring over cfg from an entry state built
// where the rounds run (BuildDS), calling before(i) ahead of round i.
func mutRounds(t *testing.T, cfg Config, rounds int, before func(round int)) (mutRun, []*Stats, error) {
	t.Helper()
	ctx := context.Background()
	d := NewDriver(cfg)
	ds, err := BuildDS(d, "mut-input", nil, mutBuild)
	if err != nil {
		t.Fatal(err)
	}
	var run mutRun
	var stats []*Stats
	for i := 0; i < rounds; i++ {
		if before != nil {
			before(i)
		}
		next, st, err := RunDS(ctx, d.Config("mut-ring"), ds, mutMap, mutReduce)
		if err != nil {
			return run, stats, fmt.Errorf("round %d: %w", i, err)
		}
		if err := d.Observe(st); err != nil {
			t.Fatal(err)
		}
		var side []uint64
		for _, part := range next.Side() {
			side = append(side, part...)
		}
		slices.Sort(side)
		run.sides = append(run.sides, side)
		stats = append(stats, st)
		ds.Recycle()
		ds = next
	}
	if err := ds.Materialize(); err != nil {
		t.Fatal(err)
	}
	run.final = ds.Collect()
	return run, stats, nil
}

func mutReference(t *testing.T, rounds int) mutRun {
	t.Helper()
	want, _, err := mutRounds(t, Config{Mappers: 4, Reducers: 4}, rounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range want.sides {
		if len(side) == 0 {
			t.Fatal("a reference round has no side output: the job no longer exercises it")
		}
	}
	return want
}

// TestSideOutputAcrossBackends: the reduce side output comes back with
// the job's Dataset, the same values on memory, spill and dist (fresh
// and chained rounds), beside bit-identical bulk output.
func TestSideOutputAcrossBackends(t *testing.T) {
	const rounds = 3
	want := mutReference(t, rounds)
	spill := Config{Mappers: 4, Reducers: 4, Shuffle: ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: 64, TempDir: t.TempDir()}}
	for name, cfg := range map[string]Config{
		"spill": spill,
		"dist":  distCfg4(startTestCluster(t, 2), "mut-ring"),
	} {
		got, _, err := mutRounds(t, cfg, rounds, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverges from memory:\n got sides %v\nwant sides %v", name, got.sides, want.sides)
		}
	}
}

// victimFrames counts what worker `victim` sends the coordinator in one
// chained mut-ring round before the flush barrier can pass — its cross
// buckets (one per split it maps and foreign partition that split's ring
// messages reach) and its map-done. Its job-done is the one frame after
// the barrier.
func victimFrames(workers, victim int) (preFlush int) {
	reach := make(map[[2]int]bool)
	for k := int32(0); k < ringN; k++ {
		split, part := partitionIndex(k, 4), partitionIndex((k+1)%ringN, 4)
		if remote.Owner(split, workers) == victim && remote.Owner(part, workers) != victim {
			reach[[2]int{split, part}] = true
		}
	}
	return len(reach) + 1
}

// TestDistConsumedInputRetry pins the consumed-input contract of chained
// jobs. Worker 1 is severed at a seeded frame after the flush barrier of
// round 2 — while it is still in its (slowed) reduce and the other
// workers have finished theirs, mutating state their resident input
// still points into. The retry must not map those survivors' copies: it
// recomputes every input partition from its lineage (ReseededPartitions
// is the whole geometry, not just the dead worker's share), and the run
// ends bit-identical to memory, side output included — nothing a lost
// attempt reported is kept, nothing the retry reports is lost.
func TestDistConsumedInputRetry(t *testing.T) {
	const rounds, faultRound, victim = 4, 2, 1
	want := mutReference(t, rounds)
	for _, workers := range []int{2, 3} {
		pre := victimFrames(workers, victim)
		var slow byte
		for p := 0; p < 4; p++ {
			if remote.Owner(p, workers) == victim {
				slow |= 1 << p
			}
		}
		arm := func(t *testing.T, cl *DistCluster, at int) func(int) {
			return func(round int) {
				if round != faultRound {
					return
				}
				if err := cl.InjectFault(victim, &remote.Fault{Op: remote.FaultSever, AfterReads: at}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				cl := startTestCluster(t, workers)
				cfg := distCfg4(cl, "mut-ring")
				cfg.DistParams = []byte{slow}
				// The job-done, the one frame past the flush.
				at := remote.FaultPoint(seed, pre+1, pre+2)
				got, stats, err := mutRounds(t, cfg, rounds, arm(t, cl, at))
				if err != nil {
					t.Fatal(err)
				}
				if st := stats[faultRound]; st.WorkerRecoveries < 1 || st.ReseededPartitions != 4 {
					t.Fatalf("round %d: recoveries=%d reseeded=%d, want >= 1 and all 4 input partitions — "+
						"the sever at frame %d no longer lands after the flush barrier", faultRound, st.WorkerRecoveries, st.ReseededPartitions, at)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("a retry after a post-flush loss diverges from memory: it mapped input the lost attempt's survivors had consumed in their reduce")
				}
			})
		}
	}
}
