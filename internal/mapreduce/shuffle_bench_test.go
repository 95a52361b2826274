package mapreduce

import (
	"context"
	"testing"
)

// benchShuffleJob is a shuffle-dominated job (the communication pattern
// of the matching algorithms): every input record fans out to 16 keys.
func benchShuffleJob(b *testing.B, cfg Config, n int) {
	b.Helper()
	input := make([]Pair[int32, int32], n)
	for i := range input {
		input[i] = P(int32(i), int32(i))
	}
	mapFn := func(k, v int32, out Emitter[int32, int32]) error {
		for f := int32(0); f < 16; f++ {
			out.Emit((k*31+f)%4096, v)
		}
		return nil
	}
	redFn := func(k int32, vs []int32, out Emitter[int32, int]) error {
		out.Emit(k, len(vs))
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(context.Background(), cfg, input, mapFn, redFn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShuffleBackendMemory is the in-memory baseline for the
// backend comparison (same workload as BenchmarkShuffleBackendSpill*).
func BenchmarkShuffleBackendMemory(b *testing.B) {
	benchShuffleJob(b, Config{Mappers: 4, Reducers: 4}, 20000)
}

// BenchmarkShuffleBackendSpillFits runs the spilling backend with a
// budget large enough that nothing reaches disk: every partition is then
// served by the memory backend's group stream, so the cost over
// BenchmarkShuffleBackendMemory is a lock per bucket.
func BenchmarkShuffleBackendSpillFits(b *testing.B) {
	benchShuffleJob(b, Config{
		Mappers: 4, Reducers: 4,
		Shuffle: ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: 1 << 20},
	}, 20000)
}

// BenchmarkShuffleBackendSpill10x forces the external-memory path: the
// budget is a tenth of the shuffle volume, so most records are encoded,
// spilled to sorted runs, and merge-streamed back.
func BenchmarkShuffleBackendSpill10x(b *testing.B) {
	benchShuffleJob(b, Config{
		Mappers: 4, Reducers: 4,
		Shuffle: ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: 32000},
	}, 20000)
}

// BenchmarkGroupSegs times the group sort of one partition — 200,000
// 8-byte-valued records in 4 splits of 1000-record buckets, on a warm
// pool — for the key shapes the jobs shuffle: narrow int32 keys (40,000
// distinct, the counting scatter's single pass), wide int32 keys
// (19-bit, the zipf graphs' node ids) and [2]int32 edge keys. Beside
// the time it reports the bytes a record checks out of the pool
// (pooled-B/rec), the group sort's working memory.
func BenchmarkGroupSegs(b *testing.B) {
	const n = 200000
	b.Run("narrow", func(b *testing.B) {
		benchGroupSegs(b, n, func(x uint64) int32 { return int32(x % 40000) })
	})
	b.Run("wide", func(b *testing.B) {
		benchGroupSegs(b, n, func(x uint64) int32 { return int32(x % (1 << 19)) })
	})
	b.Run("edge", func(b *testing.B) {
		benchGroupSegs(b, n, func(x uint64) [2]int32 { return [2]int32{int32(x % (1 << 19)), int32(x >> 32 % (1 << 19))} })
	})
}

func benchGroupSegs[K comparable](b *testing.B, n int, key func(uint64) K) {
	const splits, bucket = 4, 1000 // below emitBucketCap: the arena drops, never clears, them
	var buckets []bucketSeg[K, int32]
	for i := 0; i < n; i += bucket {
		pairs := make([]Pair[K, int32], 0, bucket)
		for j := i; j < min(i+bucket, n); j++ {
			pairs = append(pairs, P(key(mix64(uint64(j))), int32(j)))
		}
		buckets = append(buckets, bucketSeg[K, int32]{split: int32(i / bucket % splits), pairs: pairs})
	}
	pool := NewBufferPool()
	ar := arenaFor[K, int32](pool, 1)
	shape := keyShapeOf[K]()
	segs := make([]bucketSeg[K, int32], len(buckets))
	round := func() {
		copy(segs, buckets)
		keys, vals, _ := groupSegs(segs, n, false, shape, ar, 0)
		ar.putKeys(0, keys)
		ar.putVals(0, vals)
	}
	round() // warm the pool
	b0, _ := pool.counters()
	b.ResetTimer()
	for range b.N {
		round()
	}
	b.StopTimer()
	b1, _ := pool.counters()
	b.ReportMetric(float64(b1-b0)/float64(b.N)/float64(n), "pooled-B/rec")
}
