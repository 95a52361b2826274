// Package mapreduce implements an in-memory MapReduce engine that mirrors
// the programming model of Dean & Ghemawat (CACM 2008): a user-defined map
// function is applied in parallel to input key-value pairs, the emitted
// intermediate pairs are shuffled (partitioned by key and grouped), and a
// user-defined reduce function is applied to every group, again in
// parallel.
//
// The engine stands in for the Hadoop cluster used in the paper "Social
// Content Matching in MapReduce" (De Francisci Morales, Gionis, Sozio;
// VLDB 2011). The paper's efficiency results are stated in terms of the
// number of MapReduce iterations and the communication cost per job, both
// of which this engine measures exactly: every Run records counters and
// shuffle statistics, and the Driver type counts rounds for iterative
// algorithms.
//
// Unlike a toy fork-join loop, the engine keeps the essential contract of
// the model that the paper's algorithms depend on:
//
//   - mappers see a single pair at a time and communicate only by emitting
//     intermediate pairs;
//   - all pairs sharing a key meet in exactly one reduce call;
//   - reducers for different keys run concurrently, so a reduce function
//     must not rely on cross-key ordering;
//   - jobs are deterministic given deterministic user functions (groups
//     are processed in sorted key order within every partition, and output
//     order is normalized).
//
// The shuffle between the two phases is pluggable (Config.Shuffle) and
// fully parallel: map tasks partition their output into per-reducer
// buckets as pairs are emitted (map-side partitioning), and each reduce
// task groups its own partition with a stable sort by key (sort-based
// grouping), so no phase of the data path runs on a single goroutine.
// The default backend keeps everything in memory, while the spilling
// backend bounds memory by writing sorted runs to disk and
// merge-streaming the key groups to the reducers, so jobs whose
// intermediate data far exceeds RAM still complete. See
// shuffle.go for the ShuffleBackend contract. Per-phase wall times are
// recorded in Stats (MapWall, ShuffleWall, ReduceWall).
//
// The third mode is distributed execution (ShuffleDist, dist.go): the
// reduce partitions shard across worker processes connected over the
// framed TCP transport of internal/mapreduce/remote, each worker
// group-sorting and reducing its partitions locally with the functions
// registered under the job's name (RegisterDistJob) — output
// bit-identical to the memory backend for the same seed and partition
// count, with chained Dataset output staying worker-resident between
// rounds.
//
// Iterative computations chain jobs through Dataset (dataset.go), the
// engine's partition-resident currency between jobs: reduce output
// stays per-partition, the next job consumes it partition-by-partition,
// and self-addressed pairs skip hashing via the identity route. A job
// whose map only reads its input — node state that the reduce must see
// again — is a state job (RunStateDS): the records are not shuffled at
// all, each reduce task joins its input partition with its key groups.
// Loop drives such a computation to its fixed point under a Driver.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Pair is a key-value pair, the unit of data flowing through a job.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// P is a convenience constructor for Pair.
func P[K comparable, V any](k K, v V) Pair[K, V] {
	return Pair[K, V]{Key: k, Value: v}
}

// Emitter collects the pairs produced by a map or reduce function.
// Implementations are safe for use by a single task; tasks never share an
// Emitter.
type Emitter[K comparable, V any] interface {
	// Emit adds one pair to the task output.
	Emit(key K, value V)
}

// MapFunc transforms one input pair into any number of intermediate pairs.
// It must be safe to call concurrently from multiple goroutines, and it
// leaves its input as it found it — except a state job's map, which may
// write its record under the conditions RunStateDS states.
type MapFunc[K1 comparable, V1 any, K2 comparable, V2 any] func(key K1, value V1, out Emitter[K2, V2]) error

// ReduceFunc folds all intermediate values that share a key into any
// number of output pairs. Values arrive in deterministic order (the order
// mappers emitted them, with ties between mappers broken by input split
// index). It must be safe to call concurrently for distinct keys.
//
// The values slice is only valid for the duration of the call: the
// engine owns its backing array and reuses it for later groups and
// later rounds (exactly as Hadoop reuses its value objects). A reduce
// that wants to keep the values must copy them — CollectValues does.
type ReduceFunc[K2 comparable, V2 any, K3 comparable, V3 any] func(key K2, values []V2, out Emitter[K3, V3]) error

// StateReduceFunc is the reduce of a state job (RunStateDS): besides the
// messages shuffled to key it receives key's record of the job's input,
// where it resides. It is called once for every key that has a record or
// at least one message, in the partition's group order; state is nil for
// a key without a record and msgs is empty for a key nothing was sent to.
// msgs is the engine's, as in ReduceFunc. The record holds what the job's
// map wrote through its slices, and it is the reduce's to rewrite — the
// job consumes its input — and whatever the reduce emits may alias it.
type StateReduceFunc[K comparable, S, V any, K3 comparable, V3 any] func(key K, state *S, msgs []V, out Emitter[K3, V3]) error

// reduceSteps binds a job's reduce function to one partition's group
// stream. Each call of the returned step makes the partition's next
// reduce call and reports whether there was one.
type reduceSteps[K2 comparable, V2 any, K3 comparable, V3 any] func(part int, groups GroupStream[K2, V2]) func(out Emitter[K3, V3]) (bool, error)

// plainSteps serves a ReduceFunc: one call per key group.
func plainSteps[K2 comparable, V2 any, K3 comparable, V3 any](reduceFn ReduceFunc[K2, V2, K3, V3]) reduceSteps[K2, V2, K3, V3] {
	return func(part int, groups GroupStream[K2, V2]) func(Emitter[K3, V3]) (bool, error) {
		return func(out Emitter[K3, V3]) (bool, error) {
			k, values, ok, err := groups.Next()
			if err != nil || !ok {
				return false, shuffleErr(part, err)
			}
			if err := reduceFn(k, values, out); err != nil {
				return false, fmt.Errorf("mapreduce: reduce key %v: %w", k, err)
			}
			return true, nil
		}
	}
}

// joinedSteps serves a StateReduceFunc: a merge join of the job's input
// partitions — each in group order, which the map pass checked — with the
// partitions' group streams. At most one group is read ahead, and the
// next is read only after the reduce call it went to has returned, so its
// values are as short-lived as a ReduceFunc's.
func joinedSteps[K comparable, S, V any, K3 comparable, V3 any](
	parts [][]Pair[K, S], reduceFn StateReduceFunc[K, S, V, K3, V3],
) reduceSteps[K, V, K3, V3] {
	cmp := keyShapeOf[K]().cmp()
	return func(part int, groups GroupStream[K, V]) func(Emitter[K3, V3]) (bool, error) {
		recs := parts[part]
		var (
			gkey       K
			gvals      []V
			ahead, end bool // a group is read ahead; the stream has ended
		)
		return func(out Emitter[K3, V3]) (bool, error) {
			if !ahead && !end {
				var err error
				if gkey, gvals, ahead, err = groups.Next(); err != nil {
					return false, shuffleErr(part, err)
				}
				end = !ahead
			}
			// c orders the group read ahead against the next record; the
			// side that has run out loses.
			var c int
			switch {
			case !ahead && len(recs) == 0:
				return false, nil
			case !ahead:
				c = 1
			case len(recs) == 0:
				c = -1
			default:
				if c = cmp(gkey, recs[0].Key); c == 0 && gkey != recs[0].Key {
					return false, fmt.Errorf("mapreduce: state join: key comparator cannot distinguish %v from %v", gkey, recs[0].Key)
				}
			}
			var (
				key   K
				state *S
				msgs  []V
			)
			if c <= 0 {
				key, msgs, ahead = gkey, gvals, false
			}
			if c >= 0 {
				key, state, recs = recs[0].Key, &recs[0].Value, recs[1:]
			}
			if err := reduceFn(key, state, msgs, out); err != nil {
				return false, fmt.Errorf("mapreduce: reduce key %v: %w", key, err)
			}
			return true, nil
		}
	}
}

// shuffleErr wraps a group stream's failure with its partition.
func shuffleErr(part int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("mapreduce: shuffle partition %d: %w", part, err)
}

// checkGroupOrder is the map pass's side of a state job's join: record j
// of an input partition must follow record j-1 in the key order the
// group streams use, strictly.
func checkGroupOrder[K comparable, S any](cmp func(a, b K) int, name string, p int, part []Pair[K, S], j int) error {
	if j > 0 && cmp(part[j-1].Key, part[j].Key) >= 0 {
		return fmt.Errorf("mapreduce: state job %q: input partition %d is out of group order at record %d (key %v after %v)",
			name, p, j, part[j].Key, part[j-1].Key)
	}
	return nil
}

// Config controls the parallelism, partitioning and backend of a job.
type Config struct {
	// Mappers is the number of parallel map workers. Zero means
	// GOMAXPROCS.
	Mappers int
	// Reducers is the number of partitions (and parallel reduce
	// workers). Zero means GOMAXPROCS.
	Reducers int
	// Name is an optional label recorded in the job Stats.
	Name string

	// Shuffle selects and bounds the shuffle backend (see ShuffleKind).
	// The zero value is the in-memory backend.
	Shuffle ShuffleConfig

	// Dist is the worker cluster jobs run on when Shuffle.Backend is
	// ShuffleDist (see StartDistCluster). Ignored by the local backends.
	Dist *DistCluster
	// DistParams is an opaque per-job parameter blob delivered to the
	// workers' registered job factory (RegisterDistJob): how a reduce
	// that closes over driver-side round state (dual variables, layer
	// sets) ships that state to the processes that run it. Ignored by
	// the local backends.
	DistParams []byte
	// CheckpointEvery throttles dist checkpointing of worker-resident
	// job outputs: 0 (the default) checkpoints every retained output,
	// k > 0 the first and then every k-th retained output — counted per
	// job on the cluster, not per round of an algorithm — and a negative
	// value disables checkpointing entirely (a lost worker then loses
	// its partitions for good).
	// Checkpointed outputs are mirrored on the coordinator; the mirror is
	// what recovery restores from after a worker death. Ignored by the
	// local backends.
	CheckpointEvery int

	// Pool recycles round-lifetime buffers (shuffle buckets, group-sort
	// arrays, radix scratch) across the jobs that share it, making the
	// steady state of an iterative computation nearly allocation-free.
	// NewDriver attaches a pool automatically, so driver-run jobs
	// recycle out of the box; nil disables recycling. See BufferPool
	// for the ownership discipline.
	Pool *BufferPool
}

func (c Config) mappers() int {
	if c.Mappers > 0 {
		return c.Mappers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) reducers() int {
	if c.Reducers > 0 {
		return c.Reducers
	}
	return runtime.GOMAXPROCS(0)
}

// SideEmitter is the second face of the Emitter every reduce task
// receives: a per-partition side output for the few small values a
// driver folds between rounds (the edge ids a matching round settled),
// so the bulk output can stay where the reduce wrote it. A reduce that
// wants it asserts `out.(SideEmitter)`. The values come back with the
// job's output Dataset (Dataset.Side) on every backend — on dist inside
// the worker's job report, accepted or discarded with the attempt that
// produced them — in emission order within a partition.
type SideEmitter interface {
	EmitSide(v uint64)
}

// emitBuf is the concrete Emitter used by reduce tasks (and by map
// splits feeding a whole-split shuffle backend).
type emitBuf[K comparable, V any] struct {
	pairs []Pair[K, V]
	side  []uint64
}

func (e *emitBuf[K, V]) Emit(key K, value V) {
	e.pairs = append(e.pairs, Pair[K, V]{Key: key, Value: value})
}

func (e *emitBuf[K, V]) EmitSide(v uint64) { e.side = append(e.side, v) }

// emitBucketCap is the default size at which the emitter hands a full
// partition bucket to the backend. A bucket's first fill grows
// naturally (small jobs never over-allocate); once a partition has
// flushed, its next bucket is allocated at full capacity, so a busy
// partition's steady state is alloc-once-fill-hand-over — no growth
// copying on the emit hot path.
const emitBucketCap = 1024

// shuffleEmitter is the Emitter handed to map tasks: it routes every
// emitted pair into a per-reducer bucket as it is produced — map-side
// partitioning, so the one hash per pair (through the key shape
// resolved once per emitter) runs in parallel across the map tasks
// instead of serially during shuffle finalization — and hands
// each bucket to the job's shuffle backend when it fills (ownership
// transfer; the backend keeps the slice, so shuffle finalization only
// collects slice headers). Bounded buckets also let a spilling backend
// start writing runs long before the split finishes.
type shuffleEmitter[K comparable, V any] struct {
	backend ShuffleBackend[K, V]
	ar      *roundArena[K, V]
	shape   keyShape[K]
	split   int
	cap     int
	parts   int
	buckets [][]Pair[K, V]
	count   int64
	// Identity routing (partition-resident map tasks only): when selfOK
	// is set, the task updates self to each input record's key before
	// invoking the map function, and pairs emitted back to that key are
	// routed to the task's own partition (== split) without hashing.
	// local and cross count the pairs taking each route.
	selfOK bool
	self   K
	local  int64
	cross  int64
	err    error
}

func newShuffleEmitter[K comparable, V any](backend ShuffleBackend[K, V], split int, ar *roundArena[K, V]) *shuffleEmitter[K, V] {
	bcap := backend.BucketCap()
	if bcap <= 0 {
		bcap = emitBucketCap
	}
	return &shuffleEmitter[K, V]{
		backend: backend,
		ar:      ar,
		shape:   keyShapeOf[K](),
		split:   split,
		cap:     bcap,
		parts:   backend.Partitions(),
		buckets: make([][]Pair[K, V], backend.Partitions()),
	}
}

func (e *shuffleEmitter[K, V]) Emit(key K, value V) {
	if e.err != nil {
		return
	}
	var idx int
	if e.selfOK && key == e.self {
		// Identity route: a pair addressed to the task's own input key
		// necessarily belongs to the task's own partition (the input is
		// aligned), so the hash is skipped.
		idx = e.split
		e.local++
	} else {
		idx = e.shape.partition(key, e.parts)
		e.cross++
	}
	b := append(e.buckets[idx], Pair[K, V]{Key: key, Value: value})
	e.count++
	if len(b) >= e.cap {
		e.err = e.backend.AddBucket(e.split, idx, b)
		// The replacement bucket comes from the recycler when the job
		// has one: a backend checks consumed buckets back in, so a
		// steady-state round fills the same bucket storage it filled
		// last round.
		b = e.ar.getBucket(idx, e.cap)
	}
	e.buckets[idx] = b
}

// finish hands over the remaining partial buckets; they must not be
// touched afterwards (the backend owns them).
func (e *shuffleEmitter[K, V]) finish() error {
	for p, b := range e.buckets {
		if e.err != nil {
			break
		}
		if len(b) > 0 {
			e.err = e.backend.AddBucket(e.split, p, b)
		}
	}
	e.buckets = nil
	return e.err
}

// Run executes one MapReduce job over the input pairs and returns the
// reduce output together with the job statistics. The input is mapped
// in the order given, cut into Config.Mappers contiguous splits; the
// output is flattened and sorted by key (sortPairs), so identical jobs
// produce identical slices, which keeps the randomized matching
// algorithms reproducible under a fixed seed.
//
// Run is the Dataset job (RunDS) of an input that has no partitions
// yet, collected: the same map, shuffle and reduce code runs on every
// backend, and on dist the output is retained on the workers and then
// fetched like any other resident Dataset.
//
// Run returns the first error produced by any map or reduce invocation;
// the remaining tasks are cancelled.
func Run[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	input []Pair[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	reduceFn ReduceFunc[K2, V2, K3, V3],
) ([]Pair[K3, V3], *Stats, error) {
	if mapFn == nil {
		return nil, nil, errors.New("mapreduce: nil map function")
	}
	if reduceFn == nil {
		return nil, nil, errors.New("mapreduce: nil reduce function")
	}
	ds, stats, err := runFlat(ctx, cfg, input, mapFn, reduceFn)
	if err != nil {
		return nil, stats, err
	}
	// The partitions go back to the recycler (on dist, the residency is
	// released) whether or not the fetch succeeded.
	defer ds.Recycle()
	if err := ds.Materialize(); err != nil {
		return nil, stats, err
	}
	return ds.Collect(), stats, nil
}

// cancelPollEvery is how many map records or reduce groups a task runs
// between two looks at its context. ctx.Err takes a mutex, and a thin
// round is millions of invocations that each cost less than that lock,
// so the task loops ask once per this many and once more when they run
// out of input: a cancelled or failed job stops within cancelPollEvery
// further invocations per task, and a task that outruns the poll still
// reports the cancellation instead of its output.
const cancelPollEvery = 256

// runMapPhase applies mapFn to the input splits in parallel, feeding the
// emitted pairs to the shuffle backend. Pairs reach the backend tagged
// with their split index, so the intermediate order is independent of
// goroutine scheduling.
func runMapPhase[K1 comparable, V1 any, K2 comparable, V2 any](
	ctx context.Context,
	cfg Config,
	splits []span,
	input []Pair[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	backend ShuffleBackend[K2, V2],
	ar *roundArena[K2, V2],
	stats *Stats,
) error {
	grp := newErrGroup(ctx)
	for i, sp := range splits {
		i, sp := i, sp
		grp.Go(func(ctx context.Context) error {
			em := newShuffleEmitter(backend, i, ar)
			for j := sp.lo; j < sp.hi; j++ {
				if (j-sp.lo)%cancelPollEvery == 0 && ctx.Err() != nil {
					return ctx.Err()
				}
				if err := mapFn(input[j].Key, input[j].Value, em); err != nil {
					return fmt.Errorf("mapreduce: map record %d: %w", j, err)
				}
				if em.err != nil {
					return em.err
				}
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := em.finish(); err != nil {
				return err
			}
			stats.addMapOutput(em.count)
			stats.addRouted(em.local, em.cross)
			return nil
		})
	}
	return grp.Wait()
}

// runReduceParts streams every partition's key groups through reduceFn,
// keeping each partition's output separate (the Dataset view RunDS
// returns). Within a partition groups arrive in sorted key order for
// determinism; partitions run in parallel. Output buffers check out of
// the recycler (a partition's output size is stable across rounds, so
// round N+1 refills round N's buffer); they return only through an
// explicit Dataset.Recycle or Loop's superseded-state recycling. The
// second result is the tasks' side output (see SideEmitter), nil when
// no task emitted any.
func runReduceParts[K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	streams []GroupStream[K2, V2],
	steps reduceSteps[K2, V2, K3, V3],
	stats *Stats,
) ([][]Pair[K3, V3], [][]uint64, error) {
	outs := make([][]Pair[K3, V3], len(streams))
	var side struct {
		sync.Mutex
		parts [][]uint64 // allocated by the first task that has any
	}
	arOut := arenaFor[K3, V3](cfg.Pool, len(streams))
	grp := newErrGroup(ctx)
	for i, st := range streams {
		i, st := i, st
		grp.Go(func(ctx context.Context) error {
			defer st.Close()
			buf := &emitBuf[K3, V3]{pairs: arOut.getPairs(i, 0)}
			step := steps(i, st)
			groups := 0
			for ; ; groups++ {
				if groups%cancelPollEvery == 0 && ctx.Err() != nil {
					return ctx.Err()
				}
				// A failing task cancels its siblings through grp.fail
				// right away: the stream's deferred teardown (run files, on
				// spill) would come first otherwise.
				more, err := step(buf)
				if err != nil {
					return grp.fail(err)
				}
				if !more {
					break
				}
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			stats.addReduceGroups(int64(groups))
			outs[i] = buf.pairs
			if buf.side != nil {
				side.Lock()
				if side.parts == nil {
					side.parts = make([][]uint64, len(streams))
				}
				side.parts[i] = buf.side
				side.Unlock()
			}
			return nil
		})
	}
	if err := grp.Wait(); err != nil {
		return nil, nil, err
	}
	return outs, side.parts, nil
}

// span is a half-open index range [lo, hi).
type span struct{ lo, hi int }

// splitRange cuts n records into at most w near-equal contiguous spans.
func splitRange(n, w int) []span {
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	if n == 0 {
		return nil
	}
	spans := make([]span, 0, w)
	base, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		size := base
		if i < rem {
			size++
		}
		spans = append(spans, span{lo, lo + size})
		lo += size
	}
	return spans
}

// errGroup is a minimal errgroup built on the stdlib: first error wins and
// cancels the derived context.
type errGroup struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
	err    error
}

func newErrGroup(ctx context.Context) *errGroup {
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	return &errGroup{ctx: cctx, cancel: cancel}
}

func (g *errGroup) Go(fn func(ctx context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(g.ctx); err != nil {
			g.fail(err)
		}
	}()
}

// fail makes err the group's error if it is the first and cancels the
// derived context, and returns err. Go calls it with what a task
// returned; a task calls it itself when teardown stands between its
// error and its return.
func (g *errGroup) fail(err error) error {
	g.once.Do(func() {
		g.err = err
		g.cancel()
	})
	return err
}

func (g *errGroup) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}
