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
