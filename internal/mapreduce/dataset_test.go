package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The Dataset tests pin the partition-resident dataflow to the flat
// engine's semantics: a chained job must produce the same output as the
// same job over the same records re-partitioned flat, the identity
// route must fire exactly for self-addressed pairs, and Loop must
// detect fixed points, honor MaxRounds, and mix failure seeds per
// round.

// nodeJobInput builds an iterative-algorithm-shaped input: int32 node
// keys with int64 state values.
func nodeJobInput(n int) []Pair[int32, int64] {
	input := make([]Pair[int32, int64], n)
	for i := range input {
		input[i] = P(int32(i), int64(i)*3+1)
	}
	return input
}

// nodeJobMap mimics the paper's node jobs: forward the node's own state
// to itself (identity-routable) and send a message to two neighbors
// (cross-partition).
func nodeJobMap(n int32) MapFunc[int32, int64, int32, int64] {
	return func(v int32, state int64, out Emitter[int32, int64]) error {
		out.Emit(v, state<<8) // self message
		out.Emit((v+1)%n, state)
		out.Emit((v+7)%n, -state)
		return nil
	}
}

// nodeJobReduce folds a group order-insensitively but deterministically
// (the contract the ported algorithms follow: reduce output must not
// depend on value arrival order, which differs between the chained and
// the flat dataflow).
func nodeJobReduce() ReduceFunc[int32, int64, int32, int64] {
	return func(v int32, states []int64, out Emitter[int32, int64]) error {
		var sum int64
		for _, s := range states {
			sum += s
		}
		out.Emit(v, sum*31+int64(len(states)))
		return nil
	}
}

// TestRunDSChainedMatchesFlat pins the tentpole equivalence: the same
// job over the same records produces bit-identical normalized output
// whether the input chains partition-resident or runs through plain Run
// — and the chained job identity-routes.
func TestRunDSChainedMatchesFlat(t *testing.T) {
	const n = 257
	input := nodeJobInput(n)
	ctx := context.Background()

	cfg := Config{Mappers: 4, Reducers: 4}
	ds := PartitionDataset(input, cfg.reducers())

	chained, chainedStats, err := RunDS(ctx, cfg, ds, nodeJobMap(n), nodeJobReduce())
	if err != nil {
		t.Fatal(err)
	}
	plain, plainStats, err := Run(ctx, cfg, ds.Collect(), nodeJobMap(n), nodeJobReduce())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(chained.Collect(), plain) {
		t.Fatal("chained dataflow diverges from plain Run")
	}
	if chainedStats.LocalRouted != int64(n) {
		t.Fatalf("chained LocalRouted = %d, want %d (one self message per node)",
			chainedStats.LocalRouted, n)
	}
	if chainedStats.CrossRouted != int64(2*n) {
		t.Fatalf("chained CrossRouted = %d, want %d", chainedStats.CrossRouted, 2*n)
	}
	if plainStats.LocalRouted != 0 {
		t.Fatalf("plain Run LocalRouted = %d, want 0", plainStats.LocalRouted)
	}
	if plainStats.CrossRouted != int64(3*n) {
		t.Fatalf("plain Run CrossRouted = %d, want %d", plainStats.CrossRouted, 3*n)
	}

	// The chained output must itself be consumable partition-resident:
	// its records' keys hash to their resident partitions.
	for p := 0; p < chained.Partitions(); p++ {
		for _, pair := range chained.Part(p) {
			if partitionIndex(pair.Key, chained.Partitions()) != p {
				t.Fatalf("key %d resident in partition %d, hashes to %d",
					pair.Key, p, partitionIndex(pair.Key, chained.Partitions()))
			}
		}
	}
}

// TestRunDSSpillMatchesMemory runs the chained dataflow over the
// spilling backend (covering the radix run-buffer sort) and requires
// bit-identical output against the in-memory backend.
func TestRunDSSpillMatchesMemory(t *testing.T) {
	const n = 300
	input := nodeJobInput(n)
	ctx := context.Background()
	run := func(cfg Config) []Pair[int32, int64] {
		out, _, err := RunDS(ctx, cfg, PartitionDataset(input, cfg.reducers()),
			nodeJobMap(n), nodeJobReduce())
		if err != nil {
			t.Fatal(err)
		}
		return out.Collect()
	}
	mem := run(Config{Mappers: 3, Reducers: 3})
	spill := run(spillCfg(64))
	if !reflect.DeepEqual(mem, spill) {
		t.Fatal("chained spill output diverges from chained memory output")
	}
}

// TestRunDSMisalignedRepartitions feeds RunDS a dataset whose partition
// count does not match the job's reducers: the engine must fall back to
// the flat path (hash everything) and still produce the right output.
func TestRunDSMisalignedRepartitions(t *testing.T) {
	const n = 100
	input := nodeJobInput(n)
	ctx := context.Background()
	cfg := Config{Mappers: 2, Reducers: 5}
	ds := PartitionDataset(input, 3) // aligned for 3, job wants 5
	out, stats, err := RunDS(ctx, cfg, ds, nodeJobMap(n), nodeJobReduce())
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := Run(ctx, cfg, ds.Collect(), nodeJobMap(n), nodeJobReduce())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Collect(), plain) {
		t.Fatal("misaligned RunDS diverges from Run")
	}
	if stats.LocalRouted != 0 {
		t.Fatalf("misaligned input identity-routed %d pairs", stats.LocalRouted)
	}
	if out.Partitions() != cfg.reducers() {
		t.Fatalf("output has %d partitions, want %d", out.Partitions(), cfg.reducers())
	}
}

// TestRunDSKeyTypeChangeDisablesIdentityRoute re-keys intermediate
// pairs to a different type: the job must still chain per-partition but
// hash every pair.
func TestRunDSKeyTypeChangeDisablesIdentityRoute(t *testing.T) {
	input := nodeJobInput(64)
	cfg := Config{Reducers: 4}
	out, stats, err := RunDS(context.Background(), cfg, PartitionDataset(input, 4),
		func(v int32, s int64, out Emitter[string, int64]) error {
			out.Emit("even", s)
			return nil
		},
		func(k string, vs []int64, out Emitter[string, int]) error {
			out.Emit(k, len(vs))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocalRouted != 0 || stats.CrossRouted != 64 {
		t.Fatalf("routing = local %d cross %d, want 0/64", stats.LocalRouted, stats.CrossRouted)
	}
	if got := out.Collect(); len(got) != 1 || got[0].Value != 64 {
		t.Fatalf("unexpected output %v", got)
	}
	// The reduce emitted its (string) group key, so the output chains.
	if !out.Aligned() {
		t.Fatal("group-key-emitting reduce output should be aligned")
	}
}

// TestTypeChangingReduceOutputIsUnaligned: a reduce whose output key
// type differs from the group key type cannot satisfy the alignment
// contract, so its Dataset must come back unaligned (forcing the next
// chained job to re-partition).
func TestTypeChangingReduceOutputIsUnaligned(t *testing.T) {
	input := nodeJobInput(32)
	cfg := Config{Reducers: 4}
	out, _, err := RunDS(context.Background(), cfg, PartitionDataset(input, 4),
		forwardMap[int32, int64],
		func(k int32, vs []int64, out Emitter[string, int]) error {
			out.Emit("n", len(vs)) // re-keys to a different type
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.Aligned() {
		t.Fatal("type-changing reduce output claims alignment")
	}
}

// TestMapValuesPreservesAlignment checks the key-preserving transform:
// records stay in their partitions, filtered records disappear, and the
// result still chains (aligned).
func TestMapValuesPreservesAlignment(t *testing.T) {
	ds := PartitionDataset(nodeJobInput(50), 4)
	out := MapValues(ds, func(k int32, v int64) (int64, bool) {
		if k%2 == 0 {
			return v * 10, true
		}
		return 0, false
	})
	if !out.Aligned() || out.Partitions() != 4 {
		t.Fatal("MapValues lost alignment or partitioning")
	}
	if out.Len() != 25 {
		t.Fatalf("Len = %d, want 25", out.Len())
	}
	for p := 0; p < 4; p++ {
		for _, pair := range out.Part(p) {
			if partitionIndex(pair.Key, 4) != p {
				t.Fatal("MapValues moved a record across partitions")
			}
			if pair.Key%2 != 0 || pair.Value != (int64(pair.Key)*3+1)*10 {
				t.Fatalf("unexpected record %v", pair)
			}
		}
	}
}

// TestLoopFixedPointOnConvergedInput: an already-empty state is a fixed
// point — the body must never run and no rounds may be counted.
func TestLoopFixedPointOnConvergedInput(t *testing.T) {
	d := NewDriver(Config{Reducers: 2})
	state := PartitionDataset([]Pair[int32, int64](nil), 2)
	calls := 0
	final, err := Loop(context.Background(), d, state,
		func(ctx context.Context, round int, st *Dataset[int32, int64]) (*Dataset[int32, int64], error) {
			calls++
			return st, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("body ran %d times on a converged input", calls)
	}
	if d.Rounds() != 0 {
		t.Fatalf("driver counted %d rounds", d.Rounds())
	}
	if final.Len() != 0 {
		t.Fatal("final state not empty")
	}
}

// TestLoopDrivesToFixedPoint runs a shrink-by-one dataflow and checks
// the loop stops exactly when the state empties.
func TestLoopDrivesToFixedPoint(t *testing.T) {
	d := NewDriver(Config{Reducers: 3})
	state := PartitionDataset(nodeJobInput(5), 3)
	rounds := 0
	_, err := Loop(context.Background(), d, state,
		func(ctx context.Context, round int, st *Dataset[int32, int64]) (*Dataset[int32, int64], error) {
			if round != rounds {
				t.Fatalf("round index %d, want %d", round, rounds)
			}
			rounds++
			dropped := false
			return MapValues(st, func(k int32, v int64) (int64, bool) {
				if !dropped {
					dropped = true
					return 0, false
				}
				return v, true
			}), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 5 {
		t.Fatalf("loop ran %d rounds, want 5", rounds)
	}
}

// TestLoopEarlyStop: a body returning (nil, nil) stops the loop with
// the current state (the any-time stopping GreedyMR uses).
func TestLoopEarlyStop(t *testing.T) {
	d := NewDriver(Config{Reducers: 2})
	state := PartitionDataset(nodeJobInput(10), 2)
	final, err := Loop(context.Background(), d, state,
		func(ctx context.Context, round int, st *Dataset[int32, int64]) (*Dataset[int32, int64], error) {
			if round >= 2 {
				return nil, nil
			}
			return st, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if final.Len() != 10 {
		t.Fatal("early stop lost the state")
	}
}

// TestLoopMaxRounds: jobs run inside the body count against the
// driver's round budget, surfacing ErrRoundLimit on runaway loops. Two
// jobs per loop round make the driver's job budget trip before Loop's
// own round backstop.
func TestLoopMaxRounds(t *testing.T) {
	d := NewDriver(Config{Reducers: 2})
	d.MaxRounds = 3
	state := PartitionDataset(nodeJobInput(8), 2)
	spin := func(ctx context.Context, st *Dataset[int32, int64]) (*Dataset[int32, int64], error) {
		return RunJobDS(ctx, d, "spin", st,
			forwardMap[int32, int64],
			func(k int32, vs []int64, out Emitter[int32, int64]) error {
				out.Emit(k, vs[0])
				return nil
			})
	}
	_, err := Loop(context.Background(), d, state,
		func(ctx context.Context, round int, st *Dataset[int32, int64]) (*Dataset[int32, int64], error) {
			st, err := spin(ctx, st)
			if err != nil {
				return nil, err
			}
			return spin(ctx, st)
		})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if d.Rounds() != 4 {
		t.Fatalf("driver ran %d jobs before tripping, want 4", d.Rounds())
	}
}

// TestLoopMaxRoundsBackstop: a body that runs no driver-observed job
// still cannot loop forever — Loop caps its own round count at the
// driver's MaxRounds.
func TestLoopMaxRoundsBackstop(t *testing.T) {
	d := NewDriver(Config{Reducers: 2})
	d.MaxRounds = 5
	state := PartitionDataset(nodeJobInput(8), 2)
	rounds := 0
	_, err := Loop(context.Background(), d, state,
		func(ctx context.Context, round int, st *Dataset[int32, int64]) (*Dataset[int32, int64], error) {
			rounds++
			return st, nil // never shrinks, never runs a job
		})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if rounds != 5 {
		t.Fatalf("body ran %d rounds before the backstop, want 5", rounds)
	}
}

// toyPartBuilder is a BuildDataset callback over toyInput (ascending
// keys): each partition keeps the records it owns, in order, after
// calling meet (when set).
func toyPartBuilder(meet func()) func(p int, owns func(int32) bool) []Pair[int32, int64s] {
	return func(_ int, owns func(int32) bool) []Pair[int32, int64s] {
		if meet != nil {
			meet()
		}
		var part []Pair[int32, int64s]
		for _, rec := range toyInput() {
			if owns(rec.Key) {
				part = append(part, rec)
			}
		}
		return part
	}
}

// TestBuildDatasetMatchesPartitionDataset: partitions built each by its
// own callback, all callbacks running at once, are the partitions
// PartitionDataset cuts from the concatenation — same records, same
// order, aligned — and a partition count below 1 is 1.
func TestBuildDatasetMatchesPartitionDataset(t *testing.T) {
	for _, parts := range []int{-2, 0, 1, 2, 5, 8} {
		n := max(parts, 1)
		// Every callback waits for all of them to have started, which
		// callbacks run one after another never see.
		var arrived atomic.Int32
		var alone atomic.Bool
		got, err := BuildDataset(parts, toyPartBuilder(func() {
			arrived.Add(1)
			for deadline := time.Now().Add(10 * time.Second); arrived.Load() < int32(n); runtime.Gosched() {
				if time.Now().After(deadline) {
					alone.Store(true)
					return
				}
			}
		}))
		if err != nil {
			t.Fatalf("parts %d: %v", parts, err)
		}
		if alone.Load() {
			t.Errorf("parts %d: the partitions were not built at once", parts)
		}
		want := PartitionDataset(toyInput(), parts)
		if !got.Aligned() || got.Partitions() != n || want.Partitions() != n {
			t.Fatalf("parts %d: aligned %t with %d partitions, PartitionDataset %d, want %d",
				parts, got.Aligned(), got.Partitions(), want.Partitions(), n)
		}
		for p := 0; p < n; p++ {
			if !reflect.DeepEqual(got.Part(p), want.Part(p)) {
				t.Errorf("parts %d: partition %d differs from PartitionDataset's:\n got %v\nwant %v", parts, p, got.Part(p), want.Part(p))
			}
		}
	}
}

// TestBuildDatasetRefusesMisplacedOrUnorderedKeys: a callback that
// returns a key another partition owns, or keys that do not ascend, fails
// the build with the partition and the record's index — the Dataset is
// marked aligned and fed to state jobs on the callback's word.
func TestBuildDatasetRefusesMisplacedOrUnorderedKeys(t *testing.T) {
	const parts = 3
	honest := toyPartBuilder(nil)
	stray := toyInput()[0] // key 1
	home := partitionIndex(stray.Key, parts)
	thief := (home + 1) % parts
	for _, tc := range []struct {
		name  string
		build func(p int, owns func(int32) bool) []Pair[int32, int64s]
		want  string
	}{
		{"misplaced", func(p int, owns func(int32) bool) []Pair[int32, int64s] {
			part := honest(p, owns)
			if p == thief {
				part = append([]Pair[int32, int64s]{stray}, part...)
			}
			return part
		}, fmt.Sprintf("partition %d record 0: key 1 belongs to partition %d", thief, home)},
		{"descending", func(p int, owns func(int32) bool) []Pair[int32, int64s] {
			part := honest(p, owns)
			if p == 2 {
				part[4], part[5] = part[5], part[4]
			}
			return part
		}, "partition 2 record 5: key"},
		{"duplicate", func(p int, owns func(int32) bool) []Pair[int32, int64s] {
			part := honest(p, owns)
			if p == 1 {
				part = append(part[:3:3], part[2:]...)
			}
			return part
		}, "partition 1 record 3: key"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := BuildDataset(parts, tc.build)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
			if ds != nil {
				t.Error("a refused build returned a Dataset")
			}
		})
	}
}

// TestBuildDatasetChainsThroughStateJob: a built Dataset is a state
// job's input as it stands — built (BuildDS) and consumed where the job
// runs, on memory, spill and two dist workers — and two chained rounds
// leave what they leave over PartitionDataset's partitions, counter for
// counter.
func TestBuildDatasetChainsThroughStateJob(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range toyBackends(t) {
		t.Run(string(cfg.Shuffle.kind()), func(t *testing.T) {
			cfg.Name = "toy-state"
			d := NewDriver(cfg)
			built, err := BuildDS(d, "toy-build", nil, toyPartBuilder(nil))
			if err != nil {
				t.Fatal(err)
			}
			if onDist := cfg.Shuffle.kind() == ShuffleDist; (built.rem != nil) != onDist {
				t.Fatalf("built on the cluster: %t, dist backend: %t", built.rem != nil, onDist)
			}
			cut := PartitionDataset(toyInput(), cfg.reducers())
			for round := 0; round < 2; round++ {
				got, gotStats, err := RunStateDS(ctx, cfg, built, toyStateMap, toyStep)
				if err != nil {
					t.Fatalf("round %d, built input: %v", round, err)
				}
				want, wantStats, err := RunStateDS(ctx, cfg, cut, toyStateMap, toyStep)
				if err != nil {
					t.Fatalf("round %d, partitioned input: %v", round, err)
				}
				if g, w := recordCounters(gotStats), recordCounters(wantStats); g != w {
					t.Errorf("round %d: counters:\n got %v\nwant %v", round, g, w)
				}
				if !reflect.DeepEqual(got.Side(), want.Side()) {
					t.Errorf("round %d: side output:\n got %v\nwant %v", round, got.Side(), want.Side())
				}
				if !reflect.DeepEqual(cloneParts(t, got), cloneParts(t, want)) {
					t.Errorf("round %d: output differs", round)
				}
				built.Recycle()
				cut.Recycle()
				built, cut = got, want
			}
			built.Recycle()
			cut.Recycle()
		})
	}
}
