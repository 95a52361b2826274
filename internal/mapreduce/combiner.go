package mapreduce

import (
	"context"
	"fmt"
	"time"
)

// CombineFunc locally folds the values of one intermediate key inside a
// map task, before the shuffle — Hadoop's combiner. It must be
// associative and commutative with respect to the reduce function, and
// is applied once per map split per key.
type CombineFunc[K comparable, V any] func(key K, values []V) []V

// RunCombined executes a MapReduce job like Run, but applies a combiner
// to each map split's output before the shuffle. The paper's Section 3.1
// notes that the shuffle "strongly affects the efficiency of any
// MapReduce-based implementation"; a combiner is the standard lever, and
// Stats.ShuffleRecords < Stats.MapOutputRecords measures what it saved
// (see BenchmarkAblationCombiner).
func RunCombined[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	input []Pair[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	combineFn CombineFunc[K2, V2],
	reduceFn ReduceFunc[K2, V2, K3, V3],
) ([]Pair[K3, V3], *Stats, error) {
	if combineFn == nil {
		return Run(ctx, cfg, input, mapFn, reduceFn)
	}
	if mapFn == nil || reduceFn == nil {
		return nil, nil, errParams()
	}
	stats := newStats(cfg.Name)
	stats.MapInputRecords = int64(len(input))
	defer stats.snapPool(cfg.Pool)()

	splits := splitRange(len(input), cfg.mappers())
	backend, err := newShuffleBackend(cfg, len(splits), arenaFor[K2, V2](cfg.Pool, cfg.reducers()))
	if err != nil {
		return nil, stats, err
	}
	defer backend.Close()

	phase := time.Now()
	grp := newErrGroup(ctx)
	for i, sp := range splits {
		i, sp := i, sp
		grp.Go(func(ctx context.Context) error {
			return combineMapTask(ctx, i, sp.lo, input[sp.lo:sp.hi], mapFn, combineFn, backend, stats)
		})
	}
	if err := grp.Wait(); err != nil {
		stats.MapWall = time.Since(phase)
		return nil, stats, err
	}
	stats.MapWall = time.Since(phase)
	phase = time.Now()
	streams, err := backend.Finalize()
	stats.ShuffleWall = time.Since(phase)
	if err != nil {
		return nil, stats, err
	}
	phase = time.Now()
	output, err := runReducePhase(ctx, cfg, streams, reduceFn, stats)
	stats.ReduceWall = time.Since(phase)
	stats.recordShuffle(backend)
	if err != nil {
		return nil, stats, err
	}
	stats.ReduceOutputRecords = int64(len(output))
	sortPairs(output)
	return output, stats, nil
}

// combineMapTask runs one map-and-combine task over one input split:
// the whole split buffers before combining — a combiner needs every value of a
// key that the task produced, so neither chunked feeding nor
// emission-time partitioning can apply before it runs — and only the
// combined (smaller) output is partitioned and reaches the shuffle
// backend. Combined pairs are always hash-routed (counted CrossRouted):
// combining erases the per-record provenance the identity route keys
// on. offset is the split's lo bound, so map errors report the index
// the caller knows.
func combineMapTask[K1 comparable, V1 any, K2 comparable, V2 any](
	ctx context.Context,
	task, offset int,
	records []Pair[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	combineFn CombineFunc[K2, V2],
	backend ShuffleBackend[K2, V2],
	stats *Stats,
) error {
	buf := &emitBuf[K2, V2]{}
	for j := range records {
		if j%cancelPollEvery == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if err := mapFn(records[j].Key, records[j].Value, buf); err != nil {
			return fmt.Errorf("mapreduce: map record %d: %w", offset+j, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	stats.addMapOutput(int64(len(buf.pairs)))
	combined := combineSplit(buf.pairs, combineFn)
	stats.addRouted(0, int64(len(combined)))
	for p, bucket := range partitionPairs(combined, backend.Partitions()) {
		if len(bucket) == 0 {
			continue
		}
		if err := backend.AddBucket(task, p, bucket); err != nil {
			return err
		}
	}
	return nil
}

// combineSplit groups one split's output by key (preserving first-seen
// key order and per-key emission order) and applies the combiner.
func combineSplit[K comparable, V any](pairs []Pair[K, V], combineFn CombineFunc[K, V]) []Pair[K, V] {
	groups := make(map[K][]V)
	var order []K
	for _, p := range pairs {
		if _, ok := groups[p.Key]; !ok {
			order = append(order, p.Key)
		}
		groups[p.Key] = append(groups[p.Key], p.Value)
	}
	var out []Pair[K, V]
	for _, k := range order {
		for _, v := range combineFn(k, groups[k]) {
			out = append(out, Pair[K, V]{Key: k, Value: v})
		}
	}
	return out
}

func errParams() error {
	return fmt.Errorf("mapreduce: nil map or reduce function")
}
