package mapreduce

import (
	"context"
	"errors"
	"slices"
)

// This file keeps the flat-input job the package's tests are written
// against: Run maps a []Pair cut into contiguous splits, an order
// TestRunGolden pins and a Dataset job (one map task per partition) does
// not reproduce. No production caller has one.

// Run executes one MapReduce job over the input pairs and returns the
// reduce output together with the job statistics. The input is mapped
// in the order given, cut into contiguous splits (Config.Mappers of them,
// or one per partition on dist, where the workers map them); the
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

// forwardMap is a map function that forwards its input unchanged, for
// jobs whose work happens entirely in the reducer.
func forwardMap[K comparable, V any](key K, value V, out Emitter[K, V]) error {
	out.Emit(key, value)
	return nil
}

// gatherReduce re-emits the key with a copy of its value slice, for jobs
// whose work happens entirely in the mapper. The copy is required: the
// engine owns the values slice and reuses its backing array for later
// groups (see ReduceFunc).
func gatherReduce[K comparable, V any](key K, values []V, out Emitter[K, []V]) error {
	out.Emit(key, slices.Clone(values))
	return nil
}
