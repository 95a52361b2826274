package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file makes the engine loop-aware. The paper's matching algorithms
// are iterative MapReduce: tens to hundreds of rounds over node-state
// records keyed by the same graph.NodeID with the same partitioner every
// round. A loop that passed a flat []Pair from job to job would re-hash
// and re-route every record between jobs — including the large majority
// that land straight back in the partition they came from. Dataset is
// the engine's currency instead: reduce tasks emit into it per-partition
// (no global concat-and-sort barrier), and a subsequent job whose key
// type, partitioner, and partition count match consumes it
// partition-by-partition, with self-addressed pairs taking an identity
// route that skips hashing entirely. Every job is a Dataset job; one
// whose input is not aligned is collected and re-partitioned (runFlat).

// Dataset is a partitioned collection of pairs, the engine's currency
// between the jobs of an iterative computation. A Dataset is aligned
// when every record resides in the partition its key hashes to
// (partitionIndex(key, Partitions())); RunDS exploits alignment by
// running one map task per partition and identity-routing pairs a map
// task emits back to its own input key.
//
// Engine-produced Datasets are aligned by construction **provided the
// job's reduce function only emits keys that hash to the group key's
// partition** — trivially true for the dominant pattern of emitting the
// group key itself, which every iterative job in this repository
// follows. A reduce whose output key type differs from its group key
// type is automatically marked unaligned (it cannot satisfy the
// contract); a same-type reduce that re-keys its output breaks it, and
// its output must be collected and rebuilt with PartitionDataset before
// the next chained job.
type Dataset[K comparable, V any] struct {
	parts   [][]Pair[K, V]
	aligned bool
	// pool is the BufferPool the partition slices were checked out of
	// (engine-produced and MapValues-produced Datasets only; nil for
	// caller-built ones). It makes Recycle possible — it never causes
	// automatic reclamation by itself.
	pool *BufferPool
	// rem marks a worker-resident Dataset (dist backend): the records
	// live on the cluster's workers and parts holds only empty slots.
	// Len works from the per-partition counts in the residency record;
	// record access requires Materialize (see dist.go).
	rem *distResidency
	// side is the side output of the job that produced the Dataset, per
	// partition (see SideEmitter). Held here even when rem is set.
	side [][]uint64
}

// PartitionDataset hashes pairs into an aligned Dataset with the given
// partition count, preserving the input order within every partition.
// It is the entry point of an iterative computation: hash once here,
// then chain jobs with RunDS without ever re-hashing resident records.
// It panics on a key type the engine does not order (see Pair).
func PartitionDataset[K comparable, V any](pairs []Pair[K, V], parts int) *Dataset[K, V] {
	if parts < 1 {
		parts = 1
	}
	return &Dataset[K, V]{parts: partitionPairs(pairs, parts), aligned: true}
}

// BuildDataset is the entry point of an iterative computation whose
// records do not exist as a flat slice yet: build(p, owns) returns
// partition p's records — the keys owns reports, ascending in the group
// streams' key order, as a state job needs them (RunStateDS) — and is
// called once per partition, all partitions at once, so each is built
// where it will reside instead of hashed and copied there. A returned key
// that another partition owns, or that does not follow the one before it,
// is an error naming partition and record.
func BuildDataset[K comparable, V any](parts int, build func(p int, owns func(K) bool) []Pair[K, V]) (*Dataset[K, V], error) {
	if err := checkKeys[K, K](); err != nil {
		return nil, err
	}
	parts = max(parts, 1)
	order := keyShapeOf[K]().cmp()
	out := &Dataset[K, V]{parts: make([][]Pair[K, V], parts), aligned: true}
	grp := newErrGroup(nil)
	for p := range out.parts {
		grp.Go(func(context.Context) error {
			part, err := buildPart(p, parts, build, order)
			out.parts[p] = part
			return err
		})
	}
	if err := grp.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// buildPart runs a build callback for partition p of parts and checks
// what it returned: every key owned by p, ascending in order (the group
// streams' key order). It is the one place a built partition comes from,
// in this process or on the dist worker that holds it.
func buildPart[K comparable, V any](p, parts int, build func(p int, owns func(K) bool) []Pair[K, V], order func(a, b K) int) ([]Pair[K, V], error) {
	shape := keyShapeOf[K]()
	part := build(p, func(k K) bool { return shape.partition(k, parts) == p })
	for j := range part {
		if at := shape.partition(part[j].Key, parts); at != p {
			return nil, fmt.Errorf("mapreduce: build dataset: partition %d record %d: key %v belongs to partition %d", p, j, part[j].Key, at)
		}
		if j > 0 && order(part[j-1].Key, part[j].Key) >= 0 {
			return nil, fmt.Errorf("mapreduce: build dataset: partition %d record %d: key %v does not ascend from %v", p, j, part[j].Key, part[j-1].Key)
		}
	}
	return part, nil
}

// BuildDS is BuildDataset under a driver, over the driver's partitions,
// for an entry state the driver's jobs consume where it resides. On the
// memory and spill backends it is BuildDataset. On dist the coordinator
// never calls build: each partition's owner builds it from the builder
// its process registered under name (RegisterDistBuild), handed params,
// and keeps it resident, so the first job maps it where it was built; the
// Dataset's counts are the ones the workers report. A partition lost
// with its worker, or consumed by an attempt that lost one, is rebuilt
// the same way on its new owner, also when Materialize cannot fetch it.
// build and the registered builder must return the same records for the
// same partition.
func BuildDS[K comparable, V any](d *Driver, name string, params []byte, build func(p int, owns func(K) bool) []Pair[K, V]) (*Dataset[K, V], error) {
	if err := checkKeys[K, K](); err != nil {
		return nil, err
	}
	if cl := d.cfg.Dist; d.cfg.Shuffle.kind() == ShuffleDist && cl != nil {
		return buildResident[K, V](cl, d.cfg, name, params)
	}
	return BuildDataset(d.Partitions(), build)
}

// Partitions returns the partition count.
func (d *Dataset[K, V]) Partitions() int { return len(d.parts) }

// Aligned reports whether every record resides in the partition its key
// hashes to; only aligned Datasets chain partition-resident.
func (d *Dataset[K, V]) Aligned() bool { return d.aligned }

// Len returns the total record count. It sums the per-partition
// counters — O(partitions), never a record scan — which is what makes
// it the fixed-point test of Loop.
func (d *Dataset[K, V]) Len() int {
	if d.rem != nil {
		n := int64(0)
		for _, c := range d.rem.counts {
			n += c
		}
		return int(n)
	}
	n := 0
	for _, p := range d.parts {
		n += len(p)
	}
	return n
}

// Side returns the side output of the job that produced the Dataset
// (see SideEmitter), one slice per partition, or nil when no task
// emitted any. Reading it never moves a worker-resident Dataset.
func (d *Dataset[K, V]) Side() [][]uint64 { return d.side }

// Part returns one partition's records in resident order. Callers must
// not modify the slice.
func (d *Dataset[K, V]) Part(p int) []Pair[K, V] {
	d.mustMaterialize()
	return d.parts[p]
}

// Each calls fn for every record, partition by partition in resident
// order. The iteration order is deterministic (partitions ascending,
// records in reduce-emission order within each), but not globally
// key-sorted; order-sensitive consumers should use Collect.
func (d *Dataset[K, V]) Each(fn func(key K, value V)) {
	d.mustMaterialize()
	for _, part := range d.parts {
		for _, p := range part {
			fn(p.Key, p.Value)
		}
	}
}

// Collect flattens the Dataset into one slice sorted by key, so the
// output of a chain does not depend on how its records were
// partitioned.
func (d *Dataset[K, V]) Collect() []Pair[K, V] {
	d.mustMaterialize()
	out := make([]Pair[K, V], 0, d.Len())
	for _, part := range d.parts {
		out = append(out, part...)
	}
	sortPairs(out)
	return out
}

// MapValues rebuilds a Dataset record by record with a key-preserving
// transform: fn returns the record's new value and whether to keep it.
// Because keys are untouched, the result keeps the input's partitioning
// and alignment — no hashing, no data movement. This is the chained
// replacement for the "rebuild the next round's input slice" loops the
// iterative algorithms used to run between jobs.
//
// fn is called sequentially (partitions ascending, resident order
// within each), so it may close over accumulator state without locking.
//
// When d carries a BufferPool (it was produced by a pooled job or a
// previous MapValues), the output partitions check out of that pool —
// in a round loop they are the very slices an earlier round's state
// returned via Recycle or Loop — and the pool travels to the output so
// the chain keeps recycling. The input d is not consumed; recycle it
// explicitly once it is dead.
func MapValues[K comparable, V1, V2 any](d *Dataset[K, V1], fn func(key K, value V1) (V2, bool)) *Dataset[K, V2] {
	d.mustMaterialize()
	out := &Dataset[K, V2]{parts: make([][]Pair[K, V2], len(d.parts)), aligned: d.aligned, pool: d.pool}
	ar := arenaFor[K, V2](d.pool, len(d.parts))
	for i, part := range d.parts {
		if len(part) == 0 {
			continue
		}
		next := ar.getPairs(i, len(part))
		for _, p := range part {
			if v2, keep := fn(p.Key, p.Value); keep {
				next = append(next, Pair[K, V2]{Key: p.Key, Value: v2})
			}
		}
		out.parts[i] = next
	}
	return out
}

// Recycle returns the Dataset's partition buffers to the BufferPool
// they were checked out of and empties the Dataset. It is the caller's
// assertion that the Dataset — and every slice into its partitions —
// is dead; the storage will back future rounds' buffers. Safe to call
// on any Dataset (a no-op without a pool) and idempotent. Only the
// Pair spines are reclaimed: values, and anything they point to, are
// untouched.
func (d *Dataset[K, V]) Recycle() {
	if d.rem != nil {
		// Worker-resident records never reached this process: release
		// them where they live.
		d.dropResident()
		d.parts = nil
		d.pool = nil
		return
	}
	if d.pool == nil {
		return
	}
	ar := arenaFor[K, V](d.pool, len(d.parts))
	for p, part := range d.parts {
		ar.putPairs(p, part)
	}
	d.parts = nil
	d.pool = nil
}

// keyCast returns a zero-cost converter from K1 to K2 when the two are
// the same concrete type, and nil otherwise. It is how RunDS decides at
// runtime whether the consuming job's intermediate key type matches the
// producing job's — the precondition for identity routing — without
// boxing a key per record.
func keyCast[K1, K2 comparable]() func(K1) K2 {
	f, _ := any(func(k K1) K1 { return k }).(func(K1) K2)
	return f
}

// RunDS executes one MapReduce job with a Dataset on both ends — the
// engine's one job runner:
//
//   - input side: when the input is aligned with the job's partitioning
//     (same key type, same partitioner, Partitions() == cfg.Reducers)
//     map tasks run one per partition, and every pair a task emits to
//     its own input key — a node's state forwarded to itself, the
//     backbone of the paper's iterative algorithms — takes an identity
//     route straight into the task's own partition bucket, skipping the
//     hash (counted in Stats.LocalRouted; hashed pairs are
//     CrossRouted). On dist the workers that hold the input map it: an
//     input the coordinator holds is placed on them first
//     (placeResident). Misaligned input is collected and re-partitioned
//     (runFlat, the forced re-partition).
//   - output side: reduce tasks emit into the returned Dataset
//     per-partition; there is no global concat-and-sort barrier. The
//     output is aligned provided the reduce emits only keys hashing to
//     the group's partition (see Dataset).
func RunDS[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	input *Dataset[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	reduceFn ReduceFunc[K2, V2, K3, V3],
) (*Dataset[K3, V3], *Stats, error) {
	if mapFn == nil {
		return nil, nil, errors.New("mapreduce: nil map function")
	}
	if reduceFn == nil {
		return nil, nil, errors.New("mapreduce: nil reduce function")
	}
	inPlace := input.aligned && input.Partitions() == cfg.reducers()
	if inPlace && cfg.Shuffle.kind() == ShuffleDist {
		// The workers map it where it resides, and self-addressed pairs
		// never touch the wire.
		return runOnWorkers[K1, V1, K2, V2, K3, V3](ctx, cfg, input, false, false)
	}
	if err := input.Materialize(); err != nil {
		return nil, newStats(cfg.Name), err
	}
	if !inPlace {
		return runFlat(ctx, cfg, input.Collect(), mapFn, reduceFn)
	}
	return execJob(ctx, cfg, input, mapFn, nil, false, plainSteps(reduceFn))
}

// RunStateDS executes one state job: a Dataset job whose input records
// are node state, and whose reduce meets each key's record again beside
// the messages sent to it (StateReduceFunc). What an iterative algorithm
// would otherwise do — have every node send its own state to itself each
// round so the reduce can see it — costs a shuffled, sorted and, off the
// memory backend, encoded and decoded copy of the whole graph per job;
// here the records stay where they reside and each reduce task
// merge-joins its input partition with its group stream (Lin & Schatz's
// Schimmy pattern).
//
// The input must be aligned with the job's partitioning and every
// partition must be in group order — ascending keys, one record per key —
// which is how BuildDataset and BuildDS leave their partitions,
// PartitionDataset a key-ordered slice and every reduce that emits its
// own key its output; the map tasks check it and a violation fails the
// job. On dist an input that is not resident on the job's cluster is
// placed there for the job (placeResident) and released after it.
//
// The map may write its record, so that a node's own decision need not
// travel to its reduce: through the slices the record holds — never the
// value it is handed, which is a copy. The key's reduce then sees the
// writes. No map runs twice over one record: on dist, a job retried after
// a worker loss maps an input restored from its lineage (see
// DistCluster.markConsumed).
// TestStateJobMapWritesReachReduce holds every backend to this.
//
// The job counts what the self-message form counts: a record forwarded
// to its reduce is one map output record and one local-routed shuffle
// record, and a key with a record is a reduce group whether or not it
// was sent anything.
func RunStateDS[K comparable, S, V any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	input *Dataset[K, S],
	mapFn MapFunc[K, S, K, V],
	reduceFn StateReduceFunc[K, S, V, K3, V3],
) (*Dataset[K3, V3], *Stats, error) {
	if mapFn == nil {
		return nil, nil, errors.New("mapreduce: nil map function")
	}
	if reduceFn == nil {
		return nil, nil, errors.New("mapreduce: nil reduce function")
	}
	if err := checkKeys[K, K3](); err != nil {
		return nil, newStats(cfg.Name), err
	}
	if !input.aligned || input.Partitions() != cfg.reducers() {
		return nil, newStats(cfg.Name), fmt.Errorf("mapreduce: state job %q needs an input aligned with its %d partitions", cfg.Name, cfg.reducers())
	}
	if cfg.Shuffle.kind() == ShuffleDist {
		return runOnWorkers[K, S, K, V, K3, V3](ctx, cfg, input, true, false)
	}
	if err := input.Materialize(); err != nil {
		return nil, newStats(cfg.Name), err
	}
	out, stats, err := execJob(ctx, cfg, input, mapFn, keyShapeOf[K]().cmp(), false, joinedSteps(input.parts, reduceFn))
	// The backend counted what it was handed; the forwarded records are
	// the rest of what the job shuffled.
	stats.ShuffleRecords += stats.MapInputRecords
	return out, stats, err
}

// runFlat is the forced re-partition, the job of an input that no
// partitioning holds: flat is cut, in the order given, into one
// contiguous split per partition, one map task each, and every emitted
// pair is hashed to its partition. A reduce sees its values in (split,
// emission) order, which for contiguous splits is the given order
// whatever their count. On dist the splits are placed on the workers
// that map them. RunDS enters here with a collected misaligned Dataset.
func runFlat[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	flat []Pair[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	reduceFn ReduceFunc[K2, V2, K3, V3],
) (*Dataset[K3, V3], *Stats, error) {
	// An input shorter than the partition count leaves the last splits
	// empty.
	in := &Dataset[K1, V1]{parts: make([][]Pair[K1, V1], cfg.reducers())}
	for i, sp := range splitRange(len(flat), len(in.parts)) {
		in.parts[i] = flat[sp.lo:sp.hi]
	}
	if cfg.Shuffle.kind() == ShuffleDist {
		return runOnWorkers[K1, V1, K2, V2, K3, V3](ctx, cfg, in, false, true)
	}
	return execJob(ctx, cfg, in, mapFn, nil, true, plainSteps(reduceFn))
}

// execJob runs one job on a local backend (memory or spill): one map
// task per input partition (mapResident), the shuffle, and the reduce
// side, steps. A dist job runs on the workers instead (runOnWorkers).
//
// The output is marked aligned only when the reduce's output key type
// equals its group key type: a type-changing reduce cannot possibly
// satisfy the alignment contract (its keys hash under a different
// projection), so such Datasets are auto-demoted to unaligned and a
// chained consumer re-partitions them. Same-type reduces remain bound
// by the documented contract of emitting only keys that hash to the
// group's partition.
func execJob[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	input *Dataset[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	joinOrder func(a, b K1) int,
	hashed bool,
	steps reduceSteps[K2, V2, K3, V3],
) (*Dataset[K3, V3], *Stats, error) {
	stats := newStats(cfg.Name)
	if err := checkKeys[K2, K3](); err != nil {
		return nil, stats, err
	}
	stats.MapInputRecords = int64(input.Len())
	defer stats.snapPool(cfg.Pool)()

	ar := arenaFor[K2, V2](cfg.Pool, cfg.reducers())
	backend, err := newShuffleBackend(cfg, input.Partitions(), ar)
	if err != nil {
		return nil, stats, err
	}
	defer backend.Close()
	phase := time.Now()
	grp := newErrGroup(ctx)
	for p, part := range input.parts {
		grp.Go(func(ctx context.Context) error {
			em, err := mapResident(ctx, cfg.Name, p, part, mapFn, joinOrder, hashed, backend, ar)
			if err != nil {
				return err
			}
			stats.addMapOutput(em.count)
			stats.addRouted(em.local, em.cross)
			return nil
		})
	}
	err = grp.Wait()
	stats.MapWall = time.Since(phase)
	if err != nil {
		return nil, stats, err
	}
	phase = time.Now()
	streams, err := backend.Finalize()
	stats.ShuffleWall = time.Since(phase)
	if err != nil {
		return nil, stats, err
	}
	phase = time.Now()
	outs, sides, err := runReduceParts(ctx, cfg, streams, steps, stats)
	stats.ReduceWall = time.Since(phase)
	stats.recordShuffle(backend)
	if err != nil {
		return nil, stats, err
	}
	out := &Dataset[K3, V3]{parts: outs, aligned: keyCast[K2, K3]() != nil, pool: cfg.Pool, side: sides}
	stats.ReduceOutputRecords = int64(out.Len())
	return out, stats, nil
}

// mapResident is one partition-resident map task, in this process or on
// the dist worker that holds the partition: part's records go through
// mapFn into an emitter of split p — identity routing for self-addressed
// pairs when the intermediate key type matches the input key type and
// the input is partitioned by key (not hashed, a flat input's contiguous
// split) — which is returned sealed, holding the task's counts. A
// non-nil joinOrder makes it a state job's task: every record is also
// forwarded to its reduce — counted here, moved nowhere — provided the
// partition is in that key order.
func mapResident[K1 comparable, V1 any, K2 comparable, V2 any](
	ctx context.Context,
	job string,
	p int,
	part []Pair[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	joinOrder func(a, b K1) int,
	hashed bool,
	backend ShuffleBackend[K2, V2],
	ar *roundArena[K2, V2],
) (*shuffleEmitter[K2, V2], error) {
	cast := keyCast[K1, K2]()
	em := newShuffleEmitter(backend, p, ar)
	em.selfOK = cast != nil && !hashed
	for j := range part {
		if j%cancelPollEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if joinOrder != nil {
			if err := checkGroupOrder(joinOrder, job, p, part, j); err != nil {
				return nil, err
			}
		}
		if em.selfOK {
			em.self = cast(part[j].Key)
		}
		if err := mapFn(part[j].Key, part[j].Value, em); err != nil {
			return nil, fmt.Errorf("mapreduce: map partition %d record %d: %w", p, j, err)
		}
		if em.err != nil {
			return nil, em.err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := em.finish(); err != nil {
		return nil, err
	}
	if joinOrder != nil {
		em.count += int64(len(part))
		em.local += int64(len(part))
	}
	return em, nil
}

// RunJobDS executes one Dataset-chained MapReduce job under a driver,
// counting it as a round.
func RunJobDS[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	d *Driver,
	name string,
	input *Dataset[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	reduceFn ReduceFunc[K2, V2, K3, V3],
) (*Dataset[K3, V3], error) {
	out, stats, err := RunDS(ctx, d.Config(name), input, mapFn, reduceFn)
	if err != nil {
		return nil, err
	}
	if err := d.Observe(stats); err != nil {
		// The output is dropped with the error: release it, or on dist its
		// residency record and worker-resident partitions would outlive
		// the job on a cluster that is reused.
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// Loop drives an iterative dataflow to its fixed point: body maps each
// round's state Dataset to the next round's, and the loop stops when
// the state empties. The fixed-point test is Dataset.Len() — a sum of
// per-partition counters, not a record scan — which is sound for the
// paper's algorithms because their filter reduces emit only live
// records (a node record always carries at least one live edge).
//
// body receives the zero-based round index and may return (nil, nil)
// to stop early with the current state (any-time stopping). Jobs run
// inside body via RunJobDS count against the driver's MaxRounds. As a
// backstop for bodies that run no driver-observed job, Loop also caps
// its own round count at MaxRounds — a bound the driver budget always
// reaches first when every round runs at least one job. Loop returns
// the final state.
//
// Ownership: when body returns a fresh Dataset, the superseded state is
// consumed — Loop recycles its partition buffers into the driver's
// BufferPool, which is what lets round N+1 run in round N's memory.
// A body must therefore not retain the state Dataset (or slices into
// its partitions) across rounds; values, and anything they point to,
// remain untouched. The final state is never recycled.
//
// Fault tolerance is not Loop's: on dist, a job that loses a worker
// restores its input from lineage and retries inside the engine, so an
// error body returns — a WorkerLostError included — ends the loop.
func Loop[K comparable, V any](
	ctx context.Context,
	d *Driver,
	state *Dataset[K, V],
	body func(ctx context.Context, round int, state *Dataset[K, V]) (*Dataset[K, V], error),
) (*Dataset[K, V], error) {
	for round := 0; state.Len() > 0; round++ {
		if err := ctx.Err(); err != nil {
			return state, err
		}
		if d.MaxRounds > 0 && round >= d.MaxRounds {
			return state, fmt.Errorf("%w (%d loop rounds without convergence)", ErrRoundLimit, round)
		}
		next, err := body(ctx, round, state)
		if err != nil {
			return state, err
		}
		if next == nil {
			break
		}
		if next != state {
			state.Recycle()
		}
		state = next
	}
	return state, nil
}
