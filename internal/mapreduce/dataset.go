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
// route that skips hashing entirely. Every job is a Dataset job: Run is
// the one whose input has no partitions yet and whose output is
// collected (runFlat).

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
// contract); a same-type reduce that re-keys its output must be
// followed by an explicit re-partition (see Repartition) before the
// next chained job.
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
	// Len works from the per-partition counts in the handle; record
	// access requires Materialize (see dist.go).
	rem *distResident
	// rebuild builds one partition of a worker-resident Dataset that
	// BuildDS built on the workers, for Materialize to fill a partition
	// it cannot fetch; nil for every other Dataset.
	rebuild func(p int) ([]Pair[K, V], error)
	// side is the side output of the job that produced the Dataset, per
	// partition (see SideEmitter). Held here even when rem is set.
	side [][]uint64
}

// PartitionDataset hashes pairs into an aligned Dataset with the given
// partition count, preserving the input order within every partition.
// It is the entry point of an iterative computation: hash once here,
// then chain jobs with RunDS without ever re-hashing resident records.
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
// with its worker, or consumed by an aborted attempt, is rebuilt the same
// way on its new owner, and Materialize builds a partition it cannot
// fetch here, with build. build and the registered builder must return
// the same records for the same partition.
func BuildDS[K comparable, V any](d *Driver, name string, params []byte, build func(p int, owns func(K) bool) []Pair[K, V]) (*Dataset[K, V], error) {
	if cl := d.cfg.Dist; d.cfg.Shuffle.kind() == ShuffleDist && cl != nil {
		return buildResident(cl, d.cfg, name, params, build)
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

// Collect flattens the Dataset into one slice sorted by key — exactly
// the normalized output Run returns, so a computation that ends in
// Collect is indistinguishable from one that never chained.
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

// Repartition re-hashes every record into a fresh aligned Dataset with
// the given partition count. Needed only when a job re-keyed its output
// away from the group keys, or when the next job runs with a different
// reducer count.
func (d *Dataset[K, V]) Repartition(parts int) *Dataset[K, V] {
	d.mustMaterialize()
	if parts < 1 {
		parts = 1
	}
	out := &Dataset[K, V]{parts: make([][]Pair[K, V], parts), aligned: true}
	shape := keyShapeOf[K]()
	for _, part := range d.parts {
		for _, p := range part {
			idx := shape.partition(p.Key, parts)
			out.parts[idx] = append(out.parts[idx], p)
		}
	}
	return out
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
// engine's one job runner, which Run enters through runFlat:
//
//   - input side: when the input is aligned with the job's partitioning
//     (same key type, same partitioner, Partitions() == cfg.Reducers)
//     map tasks run one per partition, and every pair a task emits to
//     its own input key — a node's state forwarded to itself, the
//     backbone of the paper's iterative algorithms — takes an identity
//     route straight into the task's own partition bucket, skipping the
//     hash (counted in Stats.LocalRouted; hashed pairs are
//     CrossRouted). On dist such an input that is resident on the
//     cluster's workers is mapped there. Misaligned input is collected
//     and re-partitioned (runFlat, the forced re-partition).
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
	if inPlace && input.rem != nil && input.rem.cl == cfg.Dist && cfg.Shuffle.kind() == ShuffleDist {
		// Resident where the job runs: the workers map it, and
		// self-addressed pairs never touch the wire.
		return execJob(ctx, cfg, input.Len(), input.Partitions(), input.rem.seq, false, nil, plainSteps(reduceFn))
	}
	if err := input.Materialize(); err != nil {
		return nil, newStats(cfg.Name), err
	}
	if !inPlace {
		return runFlat(ctx, cfg, input.Collect(), mapFn, reduceFn)
	}
	return execJob(ctx, cfg, input.Len(), input.Partitions(), 0, false,
		func(ctx context.Context, backend ShuffleBackend[K2, V2], ar *roundArena[K2, V2], stats *Stats) error {
			return runMapPhaseDS(ctx, cfg, input, mapFn, nil, backend, ar, stats)
		}, plainSteps(reduceFn))
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
// value it is handed, which is a copy — and each write computed only from
// what the map itself never writes. The key's reduce then sees the
// writes. The second condition makes the map idempotent, which dist
// needs: an attempt aborted before its flush is retried over the
// surviving workers' partitions as they are, so a map task may run again
// over records it already wrote and must write the same values (after the
// flush the input is re-seeded instead; see DistCluster).
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
	if !input.aligned || input.Partitions() != cfg.reducers() {
		return nil, newStats(cfg.Name), fmt.Errorf("mapreduce: state job %q needs an input aligned with its %d partitions", cfg.Name, cfg.reducers())
	}
	if cl := cfg.Dist; cfg.Shuffle.kind() == ShuffleDist && cl != nil {
		if input.rem == nil || input.rem.cl != cl {
			if err := input.Materialize(); err != nil {
				return nil, newStats(cfg.Name), err
			}
			placed, err := placeResident(cl, input, cfg)
			if err != nil {
				return nil, newStats(cfg.Name), err
			}
			defer placed.Recycle()
			input = placed
		}
		return execJob[K, V, K3, V3](ctx, cfg, input.Len(), input.Partitions(), input.rem.seq, true, nil, nil)
	}
	if err := input.Materialize(); err != nil {
		return nil, newStats(cfg.Name), err
	}
	cmp := keyShapeOf[K]().cmp()
	out, stats, err := execJob(ctx, cfg, input.Len(), input.Partitions(), 0, true,
		func(ctx context.Context, backend ShuffleBackend[K, V], ar *roundArena[K, V], stats *Stats) error {
			return runMapPhaseDS(ctx, cfg, input, mapFn, cmp, backend, ar, stats)
		}, joinedSteps(input.parts, reduceFn))
	// The backend counted what it was handed; the forwarded records are
	// the rest of what the job shuffled.
	stats.ShuffleRecords += stats.MapInputRecords
	return out, stats, err
}

// runFlat is the forced re-partition, the job of an input that no
// partitioning holds: flat is cut, in the order given, into
// Config.Mappers contiguous splits, one map task each, and every
// emitted pair is hashed to its partition. Run enters here with the
// caller's slice, RunDS with a collected misaligned Dataset.
func runFlat[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	flat []Pair[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	reduceFn ReduceFunc[K2, V2, K3, V3],
) (*Dataset[K3, V3], *Stats, error) {
	splits := splitRange(len(flat), cfg.mappers())
	return execJob(ctx, cfg, len(flat), len(splits), 0, false,
		func(ctx context.Context, backend ShuffleBackend[K2, V2], ar *roundArena[K2, V2], stats *Stats) error {
			return runMapPhase(ctx, cfg, splits, flat, mapFn, backend, ar, stats)
		}, plainSteps(reduceFn))
}

// mapPhaseFunc runs all of a job's map tasks into a shuffle backend:
// runMapPhase over the splits of a flat input, or runMapPhaseDS over
// the partitions of an aligned Dataset.
type mapPhaseFunc[K2 comparable, V2 any] func(ctx context.Context, backend ShuffleBackend[K2, V2], ar *roundArena[K2, V2], stats *Stats) error

// execJob runs one job of `tasks` map tasks over `records` input records
// on the configured backend. mapPhase runs them in this process; on dist
// a nil mapPhase with residentSeq set means the input is job
// residentSeq's output, resident on the cluster, and the workers that
// hold its partitions map them. steps is the reduce side of the local
// backends; a dist worker binds the reduce registered under the job's
// name itself, told by state which of the two kinds it must be.
func execJob[K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	records, tasks int,
	residentSeq uint64,
	state bool,
	mapPhase mapPhaseFunc[K2, V2],
	steps reduceSteps[K2, V2, K3, V3],
) (*Dataset[K3, V3], *Stats, error) {
	stats := newStats(cfg.Name)
	stats.MapInputRecords = int64(records)
	defer stats.snapPool(cfg.Pool)()

	if cfg.Shuffle.kind() == ShuffleDist {
		out, err := runDistDS[K2, V2, K3, V3](ctx, cfg, tasks, residentSeq, state, mapPhase, stats)
		return out, stats, err
	}
	ar := arenaFor[K2, V2](cfg.Pool, cfg.reducers())
	backend, err := newShuffleBackend(cfg, tasks, ar)
	if err != nil {
		return nil, stats, err
	}
	defer backend.Close()
	phase := time.Now()
	err = mapPhase(ctx, backend, ar, stats)
	stats.MapWall = time.Since(phase)
	if err != nil {
		return nil, stats, err
	}
	out, err := finishJobDS(ctx, cfg, backend, steps, stats)
	return out, stats, err
}

// finishJobDS runs the shared tail of a Dataset job after its map phase:
// shuffle finalization, the per-partition reduce phase, and the output
// Dataset wrap, stamping the phase wall clocks and shuffle footprint.
//
// The output is marked aligned only when the reduce's output key type
// equals its group key type: a type-changing reduce cannot possibly
// satisfy the alignment contract (its keys hash under a different
// projection), so such Datasets are auto-demoted to unaligned and a
// chained consumer re-partitions them. Same-type reduces remain bound
// by the documented contract of emitting only keys that hash to the
// group's partition.
func finishJobDS[K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	backend ShuffleBackend[K2, V2],
	steps reduceSteps[K2, V2, K3, V3],
	stats *Stats,
) (*Dataset[K3, V3], error) {
	phase := time.Now()
	streams, err := backend.Finalize()
	stats.ShuffleWall = time.Since(phase)
	if err != nil {
		return nil, err
	}
	phase = time.Now()
	outs, sides, err := runReduceParts(ctx, cfg, streams, steps, stats)
	stats.ReduceWall = time.Since(phase)
	stats.recordShuffle(backend)
	if err != nil {
		return nil, err
	}
	out := &Dataset[K3, V3]{parts: outs, aligned: keyCast[K2, K3]() != nil, pool: cfg.Pool, side: sides}
	stats.ReduceOutputRecords = int64(out.Len())
	return out, nil
}

// runMapPhaseDS is the partition-resident map phase: one mapResident task
// per input partition.
func runMapPhaseDS[K1 comparable, V1 any, K2 comparable, V2 any](
	ctx context.Context,
	cfg Config,
	input *Dataset[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	joinOrder func(a, b K1) int,
	backend ShuffleBackend[K2, V2],
	ar *roundArena[K2, V2],
	stats *Stats,
) error {
	grp := newErrGroup(ctx)
	for p, part := range input.parts {
		p, part := p, part
		grp.Go(func(ctx context.Context) error {
			em, err := mapResident(ctx, cfg.Name, p, part, mapFn, joinOrder, backend, ar)
			if err != nil {
				return err
			}
			stats.addMapOutput(em.count)
			stats.addRouted(em.local, em.cross)
			return nil
		})
	}
	return grp.Wait()
}

// mapResident is one partition-resident map task, on the coordinator or
// on the dist worker that holds the partition: part's records go through
// mapFn into an emitter of split p — identity routing for self-addressed
// pairs when the intermediate key type matches the input key type — which
// is returned sealed, holding the task's counts. A non-nil joinOrder
// makes it a state job's task: every record is also forwarded to its
// reduce — counted here, moved nowhere — provided the partition is in
// that key order.
func mapResident[K1 comparable, V1 any, K2 comparable, V2 any](
	ctx context.Context,
	job string,
	p int,
	part []Pair[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	joinOrder func(a, b K1) int,
	backend ShuffleBackend[K2, V2],
	ar *roundArena[K2, V2],
) (*shuffleEmitter[K2, V2], error) {
	cast := keyCast[K1, K2]()
	em := newShuffleEmitter(backend, p, ar)
	em.selfOK = cast != nil
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
		// residency record, mirror and worker-resident partitions would
		// outlive the job on a cluster that is reused.
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
// inside body via RunJobDS count against the driver's MaxRounds, and
// Driver.Config mixes the round counter into the failure seed, so every
// round draws fresh — but reproducible — injected-failure coins. As a
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
// Fault tolerance: a round that fails to a dist worker death
// (WorkerLostError) is replayed from its entry state, as long as that
// state is still restorable — held locally, or reconstructible on the
// cluster from checkpoint mirrors (DistCluster.canRestore). This is the
// round-boundary replay hook: the engine's own job retry covers deaths
// whose inputs were checkpointed, and Loop covers the rest, because a
// round's entry state is by definition a complete cut of the
// computation. The replay budget is the cluster size (each replay
// implies at least one worker died); algorithms recover without
// changes.
func Loop[K comparable, V any](
	ctx context.Context,
	d *Driver,
	state *Dataset[K, V],
	body func(ctx context.Context, round int, state *Dataset[K, V]) (*Dataset[K, V], error),
) (*Dataset[K, V], error) {
	replays := 0
	for round := 0; state.Len() > 0; round++ {
		if err := ctx.Err(); err != nil {
			return state, err
		}
		if d.MaxRounds > 0 && round >= d.MaxRounds {
			return state, fmt.Errorf("%w (%d loop rounds without convergence)", ErrRoundLimit, round)
		}
		next, err := body(ctx, round, state)
		for err != nil && replays < state.replayBudget() && state.replayable(err) {
			replays++
			next, err = body(ctx, round, state)
		}
		if err != nil {
			return state, err
		}
		// Round boundary: commit the journal, so a coordinator restarted
		// after this point resumes from the next round rather than
		// re-running this one. Redundant with the commits Observe issued
		// for the round's jobs, and deliberately so — a body that runs
		// jobs without a driver still commits once per round.
		if cl := d.cfg.Dist; cl != nil {
			cl.journalCommit(round)
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

// replayable reports whether re-running a round from this entry state
// can succeed after err: the error must be a worker loss, and a
// worker-resident state must still be reconstructible on the cluster.
func (d *Dataset[K, V]) replayable(err error) bool {
	if !isWorkerLost(err) {
		return false
	}
	if d.rem == nil {
		return true // the entry state lives on the coordinator
	}
	return d.rem.cl.canRestore(d.rem.seq)
}

// replayBudget bounds a Loop's round replays: one per worker the
// cluster could lose, with a small allowance when the state is local
// and the cluster unknown.
func (d *Dataset[K, V]) replayBudget() int {
	if d.rem != nil {
		return len(d.rem.cl.conns)
	}
	return 4
}
