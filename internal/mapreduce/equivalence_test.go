package mapreduce

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
)

// This file pins the partitioned, sort-grouped shuffle to the seed
// engine's semantics. referenceRun is a deliberately naive
// reimplementation of the original data path — buffer everything, walk
// it serially, group each partition with a map[K][]V, stream groups in
// sorted key order — and every backend must reproduce its output
// byte-for-byte on order-sensitive jobs.

// referenceRun executes a job the way the seed engine did.
func referenceRun[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	t *testing.T,
	mappers, reducers int,
	input []Pair[K1, V1],
	mapFn MapFunc[K1, V1, K2, V2],
	reduceFn ReduceFunc[K2, V2, K3, V3],
) []Pair[K3, V3] {
	t.Helper()
	// Map splits in order; concatenating split outputs in split order
	// reproduces the engine's deterministic intermediate order.
	var mid []Pair[K2, V2]
	for _, sp := range splitRange(len(input), mappers) {
		buf := &emitBuf[K2, V2]{}
		for j := sp.lo; j < sp.hi; j++ {
			if err := mapFn(input[j].Key, input[j].Value, buf); err != nil {
				t.Fatalf("reference map: %v", err)
			}
		}
		mid = append(mid, buf.pairs...)
	}
	// Partition and group exactly like the seed: per-partition
	// map[K][]V in arrival order.
	parts := make([]map[K2][]V2, reducers)
	for i := range parts {
		parts[i] = make(map[K2][]V2)
	}
	for _, p := range mid {
		idx := partitionIndex(p.Key, reducers)
		parts[idx][p.Key] = append(parts[idx][p.Key], p.Value)
	}
	// Reduce each partition's groups in sorted key order.
	var out []Pair[K3, V3]
	for _, part := range parts {
		keys := make([]K2, 0, len(part))
		for k := range part {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
		buf := &emitBuf[K3, V3]{}
		for _, k := range keys {
			if err := reduceFn(k, part[k], buf); err != nil {
				t.Fatalf("reference reduce: %v", err)
			}
		}
		out = append(out, buf.pairs...)
	}
	sortPairs(out)
	return out
}

// The equivalence corpora below are shared with the distributed
// backend's tests (dist_test.go), which run the same functions on
// in-test worker processes — so the map/reduce functions live at file
// scope and the reduces register under the eq* job names in
// registerDistTestJobs (main_test.go).

// wcMap and wcReduce form the canonical string-keyed workload with an
// order-insensitive reduce made order-sensitive: it concatenates value
// positions so any value-order deviation shows.
func wcMap(k int, line string, out Emitter[string, string]) error {
	start := 0
	for j := 0; j <= len(line); j++ {
		if j == len(line) || line[j] == ' ' {
			if j > start {
				out.Emit(line[start:j], fmt.Sprintf("%d.%d", k, start))
			}
			start = j + 1
		}
	}
	return nil
}

func wcReduce(w string, vs []string, out Emitter[string, string]) error {
	s := ""
	for _, v := range vs {
		s += v + ","
	}
	out.Emit(w, s)
	return nil
}

func wordCountJob(t *testing.T, cfg Config) []Pair[string, string] {
	t.Helper()
	input := make([]Pair[int, string], 400)
	for i := range input {
		input[i] = P(i, fmt.Sprintf("w%d w%d w%d", i%31, i%7, i%3))
	}
	out, _, err := Run(context.Background(), cfg, input, wcMap, wcReduce)
	if err != nil {
		t.Fatal(err)
	}
	// The reference comparison re-runs the same functions outside Run.
	ref := referenceRun(t, cfg.mappers(), cfg.reducers(), input, wcMap, wcReduce)
	if !reflect.DeepEqual(out, ref) {
		t.Fatalf("%s backend diverges from the reference shuffle", cfg.Shuffle.kind())
	}
	return out
}

// TestShuffleMatchesReferenceWordCount pins both backends to the seed
// semantics on the canonical string-keyed job.
func TestShuffleMatchesReferenceWordCount(t *testing.T) {
	mem := wordCountJob(t, Config{Mappers: 4, Reducers: 3})
	spill := wordCountJob(t, spillCfg(64))
	if !reflect.DeepEqual(mem, spill) {
		t.Fatal("memory and spill outputs differ on word count")
	}
}

// TestShuffleMatchesReferenceIntKeys exercises the packed 32-bit radix
// path against the reference on an order-sensitive int32-keyed job.
func int32Map(k, v int32, out Emitter[int32, int32]) error {
	for f := int32(0); f < 5; f++ {
		out.Emit((k*17+f)%257-128, v+f) // negative keys included
	}
	return nil
}

func int32Reduce(k int32, vs []int32, out Emitter[int32, int64]) error {
	acc := int64(0)
	for i, v := range vs {
		acc = acc*31 + int64(v)*int64(i+1) // order-sensitive fold
	}
	out.Emit(k, acc)
	return nil
}

func int32Input() []Pair[int32, int32] {
	input := make([]Pair[int32, int32], 3000)
	for i := range input {
		input[i] = P(int32(i), int32(i))
	}
	return input
}

// nodeIDMap and nodeIDReduce are the int32 corpus re-keyed by a named
// integer (graph.NodeID, the key of every matching round): the same
// emissions and the same order-sensitive fold, so the job's output must
// equal the int32 job's key for key.
func nodeIDMap(k, v int32, out Emitter[graph.NodeID, int32]) error {
	for f := int32(0); f < 5; f++ {
		out.Emit(graph.NodeID((k*17+f)%257-128), v+f)
	}
	return nil
}

func nodeIDReduce(k graph.NodeID, vs []int32, out Emitter[graph.NodeID, int64]) error {
	acc := int64(0)
	for i, v := range vs {
		acc = acc*31 + int64(v)*int64(i+1)
	}
	out.Emit(k, acc)
	return nil
}

func TestShuffleMatchesReferenceIntKeys(t *testing.T) {
	input := int32Input()
	run := func(cfg Config) []Pair[int32, int64] {
		out, _, err := Run(context.Background(), cfg, input, int32Map, int32Reduce)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mem := run(Config{Mappers: 4, Reducers: 4})
	ref := referenceRun(t, 4, 4, input, int32Map, int32Reduce)
	if !reflect.DeepEqual(mem, ref) {
		t.Fatal("memory backend diverges from reference on int32 keys")
	}
	if spill := run(spillCfg(128)); !reflect.DeepEqual(mem, spill) {
		t.Fatal("spill diverges from memory on int32 keys")
	}
}

// TestShuffleMatchesReferenceCompositeKeys covers the [2]int32 key's
// 64-bit image on the memory backend against the reference shuffle.
func TestShuffleMatchesReferenceCompositeKeys(t *testing.T) {
	input := make([]Pair[int, int], 500)
	for i := range input {
		input[i] = P(i, i)
	}
	mapFn := func(k, v int, out Emitter[[2]int32, int]) error {
		out.Emit([2]int32{int32(k % 13), int32(k % 5)}, v)
		return nil
	}
	redFn := func(k [2]int32, vs []int, out Emitter[[2]int32, string]) error {
		s := ""
		for _, v := range vs {
			s += fmt.Sprintf("%d,", v)
		}
		out.Emit(k, s)
		return nil
	}
	out, _, err := Run(context.Background(), Config{Mappers: 3, Reducers: 2}, input, mapFn, redFn)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceRun(t, 3, 2, input, mapFn, redFn)
	if !reflect.DeepEqual(out, ref) {
		t.Fatal("memory backend diverges from reference on [2]int32 keys")
	}
}

// TestChunkedIngestionPreservesValueOrder is the property test for the
// AddBucket contract: a split's pairs delivered across many bucket
// handoffs (the spilling backend's chunked feeding) must reach reducers
// in global emission order — split index ascending, then emission order
// within the split — for both backends, at several bucket sizes.
func TestChunkedIngestionPreservesValueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const splits, parts, perSplit = 3, 2, 500
	// Emission log: emissions[s] lists (key, value) in emission order;
	// values encode (split, emission index) so order is checkable.
	type emission struct {
		key int32
		val int64
	}
	emissions := make([][]emission, splits)
	for s := range emissions {
		for i := 0; i < perSplit; i++ {
			emissions[s] = append(emissions[s], emission{
				key: int32(rng.Intn(37)),
				val: int64(s)<<32 | int64(i),
			})
		}
	}
	feed := func(backend ShuffleBackend[int32, int64], bucketCap int) {
		t.Helper()
		for s := range emissions {
			buckets := make([][]Pair[int32, int64], parts)
			flush := func(p int) {
				if len(buckets[p]) > 0 {
					if err := backend.AddBucket(s, p, buckets[p]); err != nil {
						t.Fatal(err)
					}
					buckets[p] = nil
				}
			}
			for _, e := range emissions[s] {
				p := partitionIndex(e.key, parts)
				buckets[p] = append(buckets[p], P(e.key, e.val))
				if len(buckets[p]) >= bucketCap {
					flush(p)
				}
			}
			for p := range buckets {
				flush(p)
			}
		}
	}
	collect := func(backend ShuffleBackend[int32, int64]) map[int32][]int64 {
		t.Helper()
		streams, err := backend.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		got := map[int32][]int64{}
		var prevKeys []int32
		for _, st := range streams {
			prevKeys = prevKeys[:0]
			for {
				k, vs, ok, err := st.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				for _, pk := range prevKeys {
					if !lessKey(pk, k) {
						t.Fatalf("keys out of order within partition: %d before %d", pk, k)
					}
				}
				prevKeys = append(prevKeys, k)
				got[k] = append([]int64(nil), vs...)
			}
			st.Close()
		}
		return got
	}
	want := map[int32][]int64{}
	for s := range emissions {
		for _, e := range emissions[s] {
			want[e.key] = append(want[e.key], e.val)
		}
	}
	for _, bucketCap := range []int{1, 3, 64, perSplit * splits} {
		mem := newMemoryShuffle[int32, int64](parts, splits, nil)
		feed(mem, bucketCap)
		if got := collect(mem); !reflect.DeepEqual(got, want) {
			t.Fatalf("memory backend broke value order at bucket cap %d", bucketCap)
		}
		mem.Close()

		sp, err := newSpillShuffle[int32, int64](parts, splits, ShuffleConfig{MemoryBudget: 128}, nil)
		if err != nil {
			t.Fatal(err)
		}
		feed(sp, bucketCap)
		if got := collect(sp); !reflect.DeepEqual(got, want) {
			t.Fatalf("spill backend broke value order at bucket cap %d", bucketCap)
		}
		sp.Close()
	}
}

// groupKeyVals group-sorts parallel keys and vals as one bucket of one
// split, through the engine's one entry (groupSegs): the counting
// scatter for narrow integer keys, the image sort for the rest.
func groupKeyVals[K comparable, V any](keys []K, vals []V, shape keyShape[K]) ([]K, []V) {
	pairs := make([]Pair[K, V], len(keys))
	for i := range keys {
		pairs[i] = P(keys[i], vals[i])
	}
	sk, sv, _, _ := groupSegs([]bucketSeg[K, V]{{pairs: pairs}}, len(pairs), false, shape, nil, 0)
	return sk, sv
}

// TestSortKeyValsStability pins the group sort permutation itself:
// random keys from a small domain, values recording original positions,
// sorted output must be key-ascending and position-ascending within
// equal keys — for every key-kind code path.
func TestSortKeyValsStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 4096
	check := func(name string, sortedKeys []int64, positions []int) {
		t.Helper()
		for i := 1; i < n; i++ {
			if sortedKeys[i] < sortedKeys[i-1] {
				t.Fatalf("%s: keys out of order at %d", name, i)
			}
			if sortedKeys[i] == sortedKeys[i-1] && positions[i] < positions[i-1] {
				t.Fatalf("%s: stability broken at %d", name, i)
			}
		}
	}
	t.Run("int32-packed", func(t *testing.T) {
		keys := make([]int32, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = int32(rng.Intn(97)) - 48
			vals[i] = i
		}
		sk, sv := groupKeyVals(keys, vals, keyShapeOf[int32]())
		asInt64 := make([]int64, n)
		for i, k := range sk {
			asInt64[i] = int64(k)
		}
		check("int32", asInt64, sv)
	})
	t.Run("int64-wide", func(t *testing.T) {
		keys := make([]int64, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = (int64(rng.Intn(31)) - 15) << 40 // spread beyond 32 bits
			vals[i] = i
		}
		sk, sv := groupKeyVals(keys, vals, keyShapeOf[int64]())
		check("int64", sk, sv)
	})
	t.Run("string-prefix-and-long", func(t *testing.T) {
		words := []string{"a", "ab", "abc", "abcdefgh", "abcdefghi", "abcdefghz", "zz", ""}
		keys := make([]string, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = words[rng.Intn(len(words))]
			vals[i] = i
		}
		sk, sv := groupKeyVals(keys, vals, keyShapeOf[string]())
		for i := 1; i < n; i++ {
			if sk[i] < sk[i-1] {
				t.Fatalf("strings out of order at %d: %q < %q", i, sk[i], sk[i-1])
			}
			if sk[i] == sk[i-1] && sv[i] < sv[i-1] {
				t.Fatalf("string stability broken at %d", i)
			}
		}
	})
	t.Run("named-int32", func(t *testing.T) {
		keys := make([]nodeKey, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = nodeKey(rng.Intn(61) - 30)
			vals[i] = i
		}
		sk, sv := groupKeyVals(keys, vals, keyShapeOf[nodeKey]())
		asInt64 := make([]int64, n)
		for i, k := range sk {
			asInt64[i] = int64(k)
		}
		check("named-int32", asInt64, sv)
	})
}

// TestStringKeysWithNULBytesStayDistinct pins the prefix-ambiguity
// repair: "a" and "a\x00" share an 8-byte zero-padded prefix image but
// are distinct keys, and must stay distinct groups in lexicographic
// order on both backends.
func TestStringKeysWithNULBytesStayDistinct(t *testing.T) {
	keys := []string{"a", "a\x00", "a", "a\x00\x00", "b\x00", "b", "a\x00"}
	input := make([]Pair[int, int], len(keys))
	for i := range input {
		input[i] = P(i, i)
	}
	run := func(cfg Config) []Pair[string, []int] {
		out, _, err := Run(context.Background(), cfg, input,
			func(k, v int, out Emitter[string, int]) error {
				out.Emit(keys[k], v)
				return nil
			},
			gatherReduce[string, int])
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mem := run(Config{Mappers: 2, Reducers: 1})
	want := []Pair[string, []int]{
		P("a", []int{0, 2}),
		P("a\x00", []int{1, 6}),
		P("a\x00\x00", []int{3}),
		P("b", []int{5}),
		P("b\x00", []int{4}),
	}
	if !reflect.DeepEqual(mem, want) {
		t.Fatalf("NUL-byte keys misgrouped:\ngot  %q\nwant %q", mem, want)
	}
	if spill := run(spillCfg(2)); !reflect.DeepEqual(mem, spill) {
		t.Fatal("NUL-byte keys diverge across backends")
	}
}

// TestDatasetChainedMatchesReference pins the partition-resident
// dataflow to the seed engine's semantics: a chained RunDS job over an
// aligned Dataset must reproduce the naive reference shuffle's output
// for a value-order-insensitive job (the contract the iterative
// algorithms follow — arrival order differs between dataflows by
// design, so order-sensitive folds are pinned by the flat tests above).
func TestDatasetChainedMatchesReference(t *testing.T) {
	const n = 211
	input := make([]Pair[int32, int64], n)
	for i := range input {
		input[i] = P(int32(i), int64(i)+7)
	}
	mapFn := func(v int32, s int64, out Emitter[int32, int64]) error {
		out.Emit(v, s*100) // self message: identity-routed when chained
		out.Emit((v+3)%n, s)
		return nil
	}
	redFn := func(v int32, vs []int64, out Emitter[int32, int64]) error {
		var sum int64
		for _, s := range vs {
			sum += s
		}
		out.Emit(v, sum*31+int64(len(vs)))
		return nil
	}
	cfg := Config{Mappers: 4, Reducers: 4}
	ds, stats, err := RunDS(context.Background(), cfg,
		PartitionDataset(input, cfg.reducers()), mapFn, redFn)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceRun(t, cfg.mappers(), cfg.reducers(), input, mapFn, redFn)
	if !reflect.DeepEqual(ds.Collect(), ref) {
		t.Fatal("chained Dataset job diverges from the reference shuffle")
	}
	if stats.LocalRouted != n {
		t.Fatalf("LocalRouted = %d, want %d", stats.LocalRouted, n)
	}
	// And on the spilling backend (radix-sorted per-partition runs).
	sp, _, err := RunDS(context.Background(), spillCfg(32),
		PartitionDataset(input, spillCfg(32).reducers()), mapFn, redFn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Collect(), ref) {
		t.Fatal("chained spill Dataset job diverges from the reference shuffle")
	}
}

// TestDistMatchesMemoryAndSpill pins the distributed backend to the
// same semantics: two in-test workers over loopback TCP must reproduce
// the memory and spill backends' output bit-for-bit on the
// equivalence corpora (string-keyed wordcount, order-sensitive int32
// fold, the same fold keyed by a named int32). The reduces run inside the
// worker goroutines via the registry (registerDistTestJobs), exactly as
// they would in a worker process.
func TestDistMatchesMemoryAndSpill(t *testing.T) {
	cl := startTestCluster(t, 2)

	t.Run("wordcount", func(t *testing.T) {
		mem := wordCountJob(t, Config{Mappers: 4, Reducers: 3, Name: "eq-wordcount"})
		spill := wordCountJob(t, spillCfg(64))
		dist := wordCountJob(t, distCfg(cl, "eq-wordcount"))
		if !reflect.DeepEqual(mem, dist) {
			t.Fatal("dist diverges from memory on word count")
		}
		if !reflect.DeepEqual(spill, dist) {
			t.Fatal("dist diverges from spill on word count")
		}
	})
	t.Run("int32", func(t *testing.T) {
		input := int32Input()
		run := func(cfg Config) []Pair[int32, int64] {
			out, _, err := Run(context.Background(), cfg, input, int32Map, int32Reduce)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		mem := run(Config{Mappers: 4, Reducers: 4, Name: "eq-int32"})
		dist := run(distCfg4(cl, "eq-int32"))
		if !reflect.DeepEqual(mem, dist) {
			t.Fatal("dist diverges from memory on int32 keys")
		}
		spillCfg := spillCfg(128)
		spillCfg.Reducers = 4
		if spill := run(spillCfg); !reflect.DeepEqual(spill, dist) {
			t.Fatal("dist diverges from spill on int32 keys")
		}
	})
	t.Run("named-int32", func(t *testing.T) {
		input := int32Input()
		run := func(cfg Config) []Pair[graph.NodeID, int64] {
			out, _, err := Run(context.Background(), cfg, input, nodeIDMap, nodeIDReduce)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		mem := run(Config{Mappers: 4, Reducers: 4, Name: "eq-nodeid"})
		if ref := referenceRun(t, 4, 4, input, nodeIDMap, nodeIDReduce); !reflect.DeepEqual(mem, ref) {
			t.Fatal("memory backend diverges from the reference shuffle on named int32 keys")
		}
		if dist := run(distCfg4(cl, "eq-nodeid")); !reflect.DeepEqual(mem, dist) {
			t.Fatal("dist diverges from memory on named int32 keys")
		}
		spillCfg := spillCfg(128)
		spillCfg.Reducers = 4
		if spill := run(spillCfg); !reflect.DeepEqual(mem, spill) {
			t.Fatal("spill diverges from memory on named int32 keys")
		}
		// Same partitions, same group order, same value order as the
		// underlying type: the int32 job's output, key for key.
		plain, _, err := Run(context.Background(), Config{Mappers: 4, Reducers: 4}, input, int32Map, int32Reduce)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(mem) {
			t.Fatalf("named job has %d groups, int32 job %d", len(mem), len(plain))
		}
		for i, p := range plain {
			if int32(mem[i].Key) != p.Key || mem[i].Value != p.Value {
				t.Fatalf("output %d: named (%d, %d), int32 (%d, %d)", i, mem[i].Key, mem[i].Value, p.Key, p.Value)
			}
		}
	})
}
