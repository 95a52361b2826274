//go:build !race

package mapreduce

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce/remote"
)

// Allocation-regression guards for the round-recycled engine. These pin
// the steady-state allocation rate of the hot paths so a future change
// cannot silently reintroduce per-round heap churn; CI runs them by
// name (-run TestAllocGuard). Excluded under the race detector, which
// inflates allocation counts.

// TestAllocGuardChainedRound pins the engine-side allocations of one
// steady-state chained job round (warm BufferPool, output recycled).
// The budget covers fixed per-job overhead — stats, task goroutines,
// stream headers, the Dataset wrapper — NOT per-record or per-key work:
// with 600 records and 50 groups per round, a per-key leak of even one
// allocation would blow the limit several times over.
func TestAllocGuardChainedRound(t *testing.T) {
	const limit = 120
	cfg := Config{Mappers: 2, Reducers: 2, Pool: NewBufferPool()}
	pairs := make([]Pair[int32, int64], 600)
	for i := range pairs {
		pairs[i] = P(int32(i%50), int64(i))
	}
	state := PartitionDataset(pairs, 2)
	mapFn := func(k int32, v int64, out Emitter[int32, int64]) error {
		out.Emit(k, v)
		return nil
	}
	redFn := func(k int32, vs []int64, out Emitter[int32, int64]) error {
		var sum int64
		for _, v := range vs {
			sum += v
		}
		out.Emit(k, sum)
		return nil
	}
	round := func() {
		out, _, err := RunDS(context.Background(), cfg, state, mapFn, redFn)
		if err != nil {
			t.Fatal(err)
		}
		out.Recycle()
	}
	round() // warm the pool
	round()
	avg := testing.AllocsPerRun(10, round)
	t.Logf("steady-state chained round: %.1f allocs", avg)
	if avg > limit {
		t.Errorf("steady-state chained round allocates %.1f (> %d): buffer recycling regressed", avg, limit)
	}
}

// TestAllocGuardPartitionIndexNamedInt pins the typed key path on the
// key every matching round hashes: a named integer (graph.NodeID) must
// hash without boxing, reflection values, or fmt — zero allocations —
// where it used to cost one hasher and one formatted string per pair.
func TestAllocGuardPartitionIndexNamedInt(t *testing.T) {
	var sink int
	id := graph.NodeID(0)
	avg := testing.AllocsPerRun(1000, func() {
		id++
		sink += partitionIndex(id, 16)
	})
	if avg != 0 {
		t.Errorf("partitionIndex[graph.NodeID] allocates %.3f per call, want 0", avg)
	}
	_ = sink
}

// TestAllocGuardMemoryAddBucket pins the memory backend's ingest: an
// AddBucket is an ownership transfer — amortized segment-list growth
// only, nothing per record.
func TestAllocGuardMemoryAddBucket(t *testing.T) {
	m := newMemoryShuffle[int32, int32](2, 1, nil)
	bucket := make([]Pair[int32, int32], emitBucketCap)
	for i := range bucket {
		bucket[i] = P(int32(i), int32(i))
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := m.AddBucket(0, 1, bucket); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("AddBucket: %.3f allocs amortized", avg)
	if avg > 0.5 {
		t.Errorf("memory AddBucket allocates %.3f amortized (> 0.5): ownership transfer regressed", avg)
	}
}

// TestAllocGuardDecodePairsV2 pins the codec-v2 columnar decode on the
// dominant wire shape (int32 keys, int64 values): with the output slice
// reused, decoding a 4096-pair blob must stay O(1) allocations — the
// cursor and nothing per pair or per column.
func TestAllocGuardDecodePairsV2(t *testing.T) {
	pc := testCodec[int32, int64](t)
	pairs := make([]Pair[int32, int64], 4096)
	for i := range pairs {
		pairs[i] = P(int32(i%512), int64(i*7))
	}
	blob := encodeTestPairs(t, pairs)
	out := make([]Pair[int32, int64], 0, len(pairs))
	avg := testing.AllocsPerRun(200, func() {
		cur := remote.NewCursor(blob)
		var derr error
		out, derr = decodePairs(cur, len(pairs), pc, out[:0])
		if derr != nil {
			t.Fatal(derr)
		}
	})
	t.Logf("decodePairs v2: %.3f allocs per 4096-pair blob", avg)
	if avg > 2 {
		t.Errorf("v2 decode allocates %.3f per blob (> 2): per-pair or per-column churn crept in", avg)
	}
}

// TestAllocGuardSpillRound pins the spill backend's steady-state round
// (warm BufferPool and codec free lists, output recycled): a fixed
// per-job overhead — what the memory backend's round pays, plus the
// partitions' spill files, merge cursors and loser trees — and a few
// allocations per run (its writer goroutine, its extent, a decoder or a
// read window past what the free lists hold). Nothing per record and
// nothing per block: the same 24 000 records are shuffled as 8 runs of
// five blocks each and as 46 runs of one (122 and 198 allocations when
// this was written), and the budget grows with the runs only.
func TestAllocGuardSpillRound(t *testing.T) {
	const fixed, perRun = 125, 3
	pairs := make([]Pair[int32, int64], 24000)
	for i := range pairs {
		pairs[i] = P(int32(i%1500), int64(i))
	}
	mapFn := func(k int32, v int64, out Emitter[int32, int64]) error {
		out.Emit(k, v)
		return nil
	}
	redFn := func(k int32, vs []int64, out Emitter[int32, int64]) error {
		var sum int64
		for _, v := range vs {
			sum += v
		}
		out.Emit(k, sum)
		return nil
	}
	for _, budget := range []int{5000, 1024} {
		cfg := Config{
			Mappers: 2, Reducers: 2, Pool: NewBufferPool(),
			Shuffle: ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: budget, TempDir: t.TempDir()},
		}
		state := PartitionDataset(pairs, 2)
		var runs int64
		round := func() {
			out, stats, err := RunDS(context.Background(), cfg, state, mapFn, redFn)
			if err != nil {
				t.Fatal(err)
			}
			runs = stats.SpillRuns
			out.Recycle()
		}
		round() // warm the pool
		round()
		avg := testing.AllocsPerRun(10, round)
		limit := float64(fixed + perRun*runs)
		t.Logf("steady-state spilled round, budget %d: %.1f allocs for %d runs (limit %.0f)", budget, avg, runs, limit)
		if runs < 8 {
			t.Fatalf("budget %d: %d runs, the guard needs a round that spills", budget, runs)
		}
		if avg > limit {
			t.Errorf("steady-state spilled round allocates %.1f (> %d + %d per run x %d runs): something is allocated per block or per record", avg, fixed, perRun, runs)
		}
	}
}

// adjRec is a node record as the matching algorithms keep it resident: a
// capacity and an adjacency list, encoded by its own AppendBinary into
// the self-encoding column.
type adjRec struct {
	b   int32
	adj []int32
}

func (r adjRec) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendVarint(buf, int64(r.b))
	for _, x := range r.adj {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	return buf, nil
}

func (r *adjRec) UnmarshalBinary([]byte) error { return errors.New("adjRec: encode only") }

// TestAllocGuardEncodeResidentPartition pins what placeResident (a state
// job's coordinator-held input) and a worker's fetch reply pay to encode
// one multi-megabyte partition from an empty buffer: 50 000 records of 1…15 adjacency entries, 3.3 MB encoded,
// must cost a handful of allocations — the key column's room, the
// element scratch growing to the widest record, the value column sized
// from the mean width so far and corrected once or twice — not the three
// dozen of a buffer grown by append's quarter steps, each one a copy of
// everything written before it.
func TestAllocGuardEncodeResidentPartition(t *testing.T) {
	pc := testCodec[int32, adjRec](t)
	rng := rand.New(rand.NewSource(5))
	pairs := make([]Pair[int32, adjRec], 50000)
	for i := range pairs {
		pairs[i] = P(int32(4*i), adjRec{b: 3, adj: make([]int32, 1+rng.Intn(15))})
	}
	var blob []byte
	avg := testing.AllocsPerRun(5, func() {
		var err error
		if blob, err = encodePairs(nil, pairs, pc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("encodePairs of %d adjacency-bearing records into a nil buffer: %.0f allocs, %d bytes", len(pairs), avg, len(blob))
	if len(blob) < 3<<20 {
		t.Fatalf("the partition encodes to %d bytes, the guard wants megabytes", len(blob))
	}
	if avg > 8 {
		t.Errorf("%.0f allocations (> 8): the blob was grown step by step again", avg)
	}
}
