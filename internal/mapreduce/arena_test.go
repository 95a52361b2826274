package mapreduce

import (
	"context"
	"reflect"
	"testing"
)

// This file pins the safety contract of the round-lifetime buffer
// recycler (arena.go): recycling must be invisible — bit-identical
// results — and buffers that escaped to the caller must never be
// reclaimed behind its back.

// chainedSumLoop runs a small iterative computation under a pooled
// driver: every round each key forwards its value to itself and sends a
// ping to a neighbor key, and the reduce folds the group. The body
// retains every round's output Dataset and, when sabotage is set,
// overwrites the PREVIOUS round's retained output with garbage before
// running the next round — if any round-N output buffer were recycled
// into round N+1's machinery, the garbage would corrupt the results.
// Returns the final collected state plus a trace of per-round sums.
func chainedSumLoop(t *testing.T, sabotage, recycle bool) ([]Pair[int32, int64], []int64) {
	t.Helper()
	const n = 160
	driver := NewDriver(Config{Mappers: 3, Reducers: 3})
	driver.MaxRounds = 64
	pairs := make([]Pair[int32, int64], n)
	for i := range pairs {
		pairs[i] = P(int32(i), int64(i+1))
	}
	state := PartitionDataset(pairs, driver.Partitions())

	var retained *Dataset[int32, int64]
	var trace []int64
	final, err := Loop(context.Background(), driver, state, func(
		ctx context.Context, round int, st *Dataset[int32, int64],
	) (*Dataset[int32, int64], error) {
		if round >= 4 {
			return nil, nil
		}
		if sabotage && retained != nil {
			for p := 0; p < retained.Partitions(); p++ {
				part := retained.parts[p]
				for i := range part {
					part[i] = Pair[int32, int64]{Key: -1, Value: -1 << 40}
				}
			}
		}
		out, err := RunJobDS(ctx, driver, "round", st,
			func(k int32, v int64, out Emitter[int32, int64]) error {
				out.Emit(k, v)
				out.Emit((k*7+1)%n, 1)
				return nil
			},
			func(k int32, vs []int64, out Emitter[int32, int64]) error {
				var sum int64
				for _, v := range vs {
					sum += v
				}
				out.Emit(k, sum)
				return nil
			})
		if err != nil {
			return nil, err
		}
		var roundSum int64
		next := MapValues(out, func(_ int32, v int64) (int64, bool) {
			roundSum += v
			return v, true
		})
		trace = append(trace, roundSum)
		if recycle {
			out.Recycle()
		} else {
			retained = out
		}
		return next, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return final.Collect(), trace
}

// TestRecycledRoundsImmuneToRetainedOutputMutation is the cross-round
// aliasing property test: two chained Loop workloads run back-to-back
// on the same engine configuration, one of which mutates every round's
// retained output Dataset before the next round runs. Round N+1's
// groups (and therefore every downstream result) must be unaffected,
// because output buffers are never reclaimed without an explicit
// Recycle.
func TestRecycledRoundsImmuneToRetainedOutputMutation(t *testing.T) {
	cleanState, cleanTrace := chainedSumLoop(t, false, false)
	dirtyState, dirtyTrace := chainedSumLoop(t, true, false)
	if !reflect.DeepEqual(cleanTrace, dirtyTrace) {
		t.Fatalf("mutating retained round outputs changed later rounds:\nclean: %v\ndirty: %v",
			cleanTrace, dirtyTrace)
	}
	if !reflect.DeepEqual(cleanState, dirtyState) {
		t.Fatal("mutating retained round outputs changed the final state")
	}
}

// TestExplicitRecycleIsTransparent pins the other direction: a body
// that recycles its consumed outputs (the GreedyMR pattern) produces
// results identical to one that never recycles.
func TestExplicitRecycleIsTransparent(t *testing.T) {
	plainState, plainTrace := chainedSumLoop(t, false, false)
	recState, recTrace := chainedSumLoop(t, false, true)
	if !reflect.DeepEqual(plainTrace, recTrace) {
		t.Fatalf("recycling changed round traces:\nplain: %v\nrecycled: %v", plainTrace, recTrace)
	}
	if !reflect.DeepEqual(plainState, recState) {
		t.Fatal("recycling changed the final state")
	}
}

// TestBackToBackLoopsShareOnePool runs two chained Loop workloads back
// to back on one driver (one BufferPool): the second workload runs
// entirely in the first one's recycled buffers, while the test still
// holds — and then mutates — every Dataset the first workload produced.
// The second workload's results must match a fresh engine's exactly.
func TestBackToBackLoopsShareOnePool(t *testing.T) {
	const n = 120
	pairs := make([]Pair[int32, int64], n)
	for i := range pairs {
		pairs[i] = P(int32(i), int64(2*i+1))
	}
	runLoop := func(driver *Driver, keepOutputs *[]*Dataset[int32, int64]) []Pair[int32, int64] {
		state := PartitionDataset(pairs, driver.Partitions())
		final, err := Loop(context.Background(), driver, state, func(
			ctx context.Context, round int, st *Dataset[int32, int64],
		) (*Dataset[int32, int64], error) {
			if round >= 3 {
				return nil, nil
			}
			out, err := RunJobDS(ctx, driver, "round", st,
				func(k int32, v int64, out Emitter[int32, int64]) error {
					out.Emit(k, v+1)
					out.Emit((k+13)%n, 2)
					return nil
				},
				func(k int32, vs []int64, out Emitter[int32, int64]) error {
					var sum int64
					for _, v := range vs {
						sum += v
					}
					out.Emit(k, sum)
					return nil
				})
			if err != nil {
				return nil, err
			}
			next := MapValues(out, func(_ int32, v int64) (int64, bool) { return v, true })
			if keepOutputs != nil {
				*keepOutputs = append(*keepOutputs, out)
			} else {
				out.Recycle()
			}
			return next, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return final.Collect()
	}

	shared := NewDriver(Config{Mappers: 2, Reducers: 2})
	shared.MaxRounds = 64
	var firstOutputs []*Dataset[int32, int64]
	first := runLoop(shared, &firstOutputs)
	// Poison everything the first workload handed out before the second
	// workload runs on the same pool.
	for _, d := range firstOutputs {
		for p := 0; p < d.Partitions(); p++ {
			part := d.parts[p]
			for i := range part {
				part[i] = Pair[int32, int64]{Key: -7, Value: -7}
			}
		}
	}
	second := runLoop(shared, nil)

	fresh := NewDriver(Config{Mappers: 2, Reducers: 2})
	fresh.MaxRounds = 64
	want := runLoop(fresh, nil)
	if !reflect.DeepEqual(first, want) {
		t.Fatal("first workload diverged from the fresh-engine reference")
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatal("second workload on the shared pool diverged (cross-workload buffer aliasing)")
	}
}

// TestPoolStatsReportReuse checks that a chained computation actually
// recycles: after the first round the pool serves the round loop from
// its free lists, so later jobs report pooled bytes and an (eventually)
// stable miss count.
func TestPoolStatsReportReuse(t *testing.T) {
	driver := NewDriver(Config{Mappers: 2, Reducers: 2})
	driver.MaxRounds = 64
	pairs := make([]Pair[int32, int64], 300)
	for i := range pairs {
		pairs[i] = P(int32(i%50), int64(i))
	}
	state := PartitionDataset(pairs, driver.Partitions())
	_, err := Loop(context.Background(), driver, state, func(
		ctx context.Context, round int, st *Dataset[int32, int64],
	) (*Dataset[int32, int64], error) {
		if round >= 5 {
			return nil, nil
		}
		out, err := RunJobDS(ctx, driver, "round", st, forwardMap[int32, int64],
			func(k int32, vs []int64, out Emitter[int32, int64]) error {
				out.Emit(k, vs[0])
				return nil
			})
		if err != nil {
			return nil, err
		}
		next := MapValues(out, func(_ int32, v int64) (int64, bool) { return v, true })
		out.Recycle()
		return next, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := driver.Trace()
	if len(trace) != 5 {
		t.Fatalf("expected 5 rounds, got %d", len(trace))
	}
	first, last := trace[0], trace[len(trace)-1]
	if last.PooledBytes == 0 {
		t.Error("steady-state round served no pooled bytes")
	}
	if last.PoolMisses > first.PoolMisses {
		t.Errorf("pool misses grew across rounds: first=%d last=%d", first.PoolMisses, last.PoolMisses)
	}
	if driver.Total().PooledBytes == 0 {
		t.Error("driver totals lost the pool stats")
	}
}

// TestRecycledBufferTailsAreZero pins the invariant putFree's prefix
// clear rests on: every free-listed buffer is zero over its whole
// capacity, not just over what its last holder wrote. The loop shrinks
// round by round (the GreedyMR shape), so round-one-sized buffers are
// checked in again and again at ever shorter lengths; the values carry
// a pointer, the case a stale tail would pin against the collector.
func TestRecycledBufferTailsAreZero(t *testing.T) {
	type boxed struct {
		p *int64
		n int64
	}
	const n = 4000 // several full emit buckets per partition in round one
	pairs := make([]Pair[int32, boxed], n)
	for i := range pairs {
		v := int64(i)
		pairs[i] = P(int32(i), boxed{p: &v, n: v})
	}
	driver := NewDriver(Config{Mappers: 2, Reducers: 2})
	driver.MaxRounds = 64
	state := PartitionDataset(pairs, driver.Partitions())
	_, err := Loop(context.Background(), driver, state, func(
		ctx context.Context, round int, st *Dataset[int32, boxed],
	) (*Dataset[int32, boxed], error) {
		out, err := RunJobDS(ctx, driver, "shrink", st,
			func(k int32, v boxed, out Emitter[int32, boxed]) error {
				out.Emit(k, v)
				out.Emit(k/2, v)
				return nil
			},
			func(k int32, vs []boxed, out Emitter[int32, boxed]) error {
				if k%3 != int32(round)%3 { // a third of the keys die per round
					out.Emit(k, vs[0])
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
		next := MapValues(out, func(_ int32, v boxed) (boxed, bool) { return v, true })
		out.Recycle()
		return next, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if driver.Rounds() < 5 {
		t.Fatalf("only %d rounds: the loop did not shrink gradually", driver.Rounds())
	}
	ar := arenaFor[int32, boxed](driver.cfg.Pool, driver.Partitions())
	checked := 0
	for p := range ar.parts {
		part := &ar.parts[p]
		for class, list := range map[string][][]Pair[int32, boxed]{"buckets": part.buckets, "pairs": part.pairs} {
			for _, s := range list {
				checked++
				for i, v := range s[:cap(s)] {
					if v != (Pair[int32, boxed]{}) {
						t.Fatalf("partition %d %s: stale pair at %d of cap %d", p, class, i, cap(s))
					}
				}
			}
		}
		for _, s := range part.vals {
			checked++
			for i, v := range s[:cap(s)] {
				if v != (boxed{}) {
					t.Fatalf("partition %d vals: stale value at %d of cap %d", p, i, cap(s))
				}
			}
		}
		for _, s := range part.keys {
			checked++
			for i, k := range s[:cap(s)] {
				if k != 0 {
					t.Fatalf("partition %d keys: stale key at %d of cap %d", p, i, cap(s))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("the arena holds no free buffers: nothing was checked")
	}
}

// heldBuffers counts the buffers on an arena's free lists.
func heldBuffers[K comparable, V any](a *roundArena[K, V]) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, p := range a.parts {
		n += len(p.buckets) + len(p.pairs) + len(p.keys) + len(p.vals) + len(p.u64s) + len(p.i32s) + len(p.radix)
	}
	return n
}

// TestDriverReleaseEmptiesOwnPool checks Driver.Release: the pool
// NewDriver attached holds nothing afterwards — neither through the pool
// nor through an arena a caller still holds — and the driver keeps
// running jobs with the same results; a pool the caller passed in is
// left as it was.
func TestDriverReleaseEmptiesOwnPool(t *testing.T) {
	pairs := make([]Pair[int32, int64], 200)
	for i := range pairs {
		pairs[i] = P(int32(i%40), int64(i))
	}
	sum := func(k int32, vs []int64, out Emitter[int32, int64]) error {
		var s int64
		for _, v := range vs {
			s += v
		}
		out.Emit(k, s)
		return nil
	}
	run := func(d *Driver) []Pair[int32, int64] {
		t.Helper()
		out, err := RunJobDS(context.Background(), d, "sum", PartitionDataset(pairs, d.Partitions()), forwardMap[int32, int64], sum)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Collect()
		out.Recycle()
		return got
	}

	own := NewDriver(Config{Mappers: 2, Reducers: 2})
	want := run(own)
	held := arenaFor[int32, int64](own.cfg.Pool, own.Partitions())
	if heldBuffers(held) == 0 {
		t.Fatal("a pooled job left nothing on the free lists")
	}
	own.Release()
	if n := heldBuffers(held); n != 0 {
		t.Errorf("an arena held across Release still has %d buffers", n)
	}
	if n := heldBuffers(arenaFor[int32, int64](own.cfg.Pool, own.Partitions())); n != 0 {
		t.Errorf("the released pool still hands out an arena with %d buffers", n)
	}
	if got := run(own); !reflect.DeepEqual(got, want) {
		t.Error("a job after Release differs from the one before it")
	}
	if last := own.Trace()[len(own.Trace())-1]; last.PoolMisses == 0 {
		t.Error("the first job after Release reported no pool misses")
	}

	pool := NewBufferPool()
	shared := NewDriver(Config{Mappers: 2, Reducers: 2, Pool: pool})
	run(shared)
	before := heldBuffers(arenaFor[int32, int64](pool, shared.Partitions()))
	shared.Release()
	if after := heldBuffers(arenaFor[int32, int64](pool, shared.Partitions())); after != before || after == 0 {
		t.Errorf("Release emptied a caller's pool: %d buffers before, %d after", before, after)
	}
}
