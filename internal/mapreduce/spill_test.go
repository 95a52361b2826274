package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
)

// keyGroup is one key group as a stream served it.
type keyGroup[K comparable] struct {
	key  K
	vals []int64
}

// drainGroups finalizes backend and reads every partition's groups, in
// stream order, copying the values.
func drainGroups[K comparable](t *testing.T, backend ShuffleBackend[K, int64]) [][]keyGroup[K] {
	t.Helper()
	streams, err := backend.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]keyGroup[K], len(streams))
	for p, st := range streams {
		for {
			k, vs, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out[p] = append(out[p], keyGroup[K]{k, append([]int64(nil), vs...)})
		}
		st.Close()
	}
	return out
}

// TestInterleavedIngestionPreservesValueOrder is the property test for
// the rule the spill backend orders a key's values by: (split, run,
// position in run). TestChunkedIngestionPreservesValueOrder feeds one
// split after the other, so there every run holds one split and a merge
// that ordered by (run, split) would pass. Here the splits' buckets
// interleave — round-robin on one goroutine, and one goroutine per split
// — under a budget small enough that every key's values span at least
// three runs and every run holds at least two splits (checked on the
// run files themselves), at several bucket caps, for an integer and a
// string key type. The memory backend, fed the same
// emissions, is the reference, value for value.
func TestInterleavedIngestionPreservesValueOrder(t *testing.T) {
	t.Run("int32", func(t *testing.T) {
		interleavedIngestion(t, func(i int) int32 { return int32(i*7) - 20 })
	})
	t.Run("string", func(t *testing.T) {
		// Beyond the 8-byte prefix image, and one key a prefix of others.
		interleavedIngestion(t, func(i int) string { return "consumer"[:8-i%2] + fmt.Sprint(i/2) })
	})
}

func interleavedIngestion[K comparable](t *testing.T, keyOf func(i int) K) {
	const splits, parts, perSplit, nkeys, budget = 4, 2, 1500, 10, 2 * 256
	type emission struct {
		key K
		val int64
	}
	rng := rand.New(rand.NewSource(11))
	emissions := make([][]emission, splits)
	for s := range emissions {
		for i := 0; i < perSplit; i++ {
			emissions[s] = append(emissions[s], emission{keyOf(rng.Intn(nkeys)), int64(s)<<32 | int64(i)})
		}
	}
	// feeder returns the function that emits split s's i-th pair into
	// backend through buckets of bucketCap, and the one that hands over
	// the split's partial buckets.
	feeder := func(backend ShuffleBackend[K, int64], bucketCap, s int) (emit func(i int), finish func()) {
		buckets := make([][]Pair[K, int64], parts)
		flush := func(p int) {
			if len(buckets[p]) > 0 {
				if err := backend.AddBucket(s, p, buckets[p]); err != nil {
					t.Error(err)
				}
				buckets[p] = nil
			}
		}
		emit = func(i int) {
			e := emissions[s][i]
			p := partitionIndex(e.key, parts)
			if buckets[p] = append(buckets[p], P(e.key, e.val)); len(buckets[p]) >= bucketCap {
				flush(p)
			}
		}
		return emit, func() {
			for p := range buckets {
				flush(p)
			}
		}
	}
	roundRobin := func(backend ShuffleBackend[K, int64], bucketCap int) {
		emits, finishes := make([]func(int), splits), make([]func(), splits)
		for s := range emits {
			emits[s], finishes[s] = feeder(backend, bucketCap, s)
		}
		for i := 0; i < perSplit; i++ {
			for s := range emits {
				emits[s](i)
			}
		}
		for _, finish := range finishes {
			finish()
		}
	}
	concurrent := func(backend ShuffleBackend[K, int64], bucketCap int) {
		var wg sync.WaitGroup
		for s := 0; s < splits; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				emit, finish := feeder(backend, bucketCap, s)
				for i := 0; i < perSplit; i++ {
					emit(i)
				}
				finish()
			}()
		}
		wg.Wait()
	}

	mem := newMemoryShuffle[K, int64](parts, splits, nil)
	roundRobin(mem, 64)
	want := drainGroups[K](t, mem)
	for p, groups := range want {
		if len(groups) == 0 {
			t.Fatalf("partition %d got no key: the test needs keys in every partition", p)
		}
	}

	for _, bucketCap := range []int{1, 7, 64} {
		for name, feed := range map[string]func(ShuffleBackend[K, int64], int){"round-robin": roundRobin, "concurrent": concurrent} {
			sp, err := newSpillShuffle[K, int64](parts, splits, ShuffleConfig{MemoryBudget: budget, TempDir: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			feed(sp, bucketCap)
			if t.Failed() {
				t.FailNow()
			}
			for p := range sp.parts {
				if err := sp.parts[p].settle(); err != nil {
					t.Fatal(err)
				}
				// How far goroutines interleave is the scheduler's
				// choice; round-robin puts every split in every run.
				checkRunsInterleave(t, sp, p, want[p], name == "round-robin")
			}
			if got := drainGroups[K](t, sp); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, bucket cap %d: spill backend's groups differ from the memory backend's", name, bucketCap)
			}
			sp.Close()
		}
	}
}

// checkRunsInterleave reads partition part's run files back and checks
// the premise of the interleaved-ingestion test: at least three runs,
// every key of the partition in at least three of them, and (when
// mixed) at least two splits in every run.
func checkRunsInterleave[K comparable](t *testing.T, sp *spillShuffle[K, int64], part int, groups []keyGroup[K], mixed bool) {
	t.Helper()
	p := &sp.parts[part]
	if len(p.runs) < 3 {
		t.Fatalf("partition %d wrote %d runs, the test needs 3", part, len(p.runs))
	}
	keys, vals := make([]K, spillBlockRecs), make([]int64, spillBlockRecs)
	splits, imgs := make([]int32, spillBlockRecs), make([]uint64, spillBlockRecs)
	runsOf := map[K]int{}
	for i, ext := range p.runs {
		dec := sp.pc.getRunDec(p.file, ext.off, ext.n)
		inRun, splitsInRun := map[K]bool{}, map[int32]bool{}
		for {
			n, err := dec.readBlock(sp.pc, sp.img, sp.splits, keys, vals, splits, imgs)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < n; j++ {
				inRun[keys[j]], splitsInRun[splits[j]] = true, true
			}
		}
		sp.pc.putRunDec(dec)
		for k := range inRun {
			runsOf[k]++
		}
		if mixed && len(splitsInRun) < 2 {
			t.Fatalf("partition %d run %d holds %d split, the test needs 2", part, i, len(splitsInRun))
		}
	}
	for _, g := range groups {
		if runsOf[g.key] < 3 {
			t.Fatalf("partition %d: key %v is in %d runs, the test needs 3", part, g.key, runsOf[g.key])
		}
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	return len(ents)
}

// TestSpillDescriptorsBounded: a partition's runs share one unlinked
// spill file, so a job holds at most one descriptor per partition however
// many runs its budget forces (50 and more here), and none once it has
// returned — whether it finished, failed in a map task with runs already
// on disk, or failed in a reduce task with the merge open.
func TestSpillDescriptorsBounded(t *testing.T) {
	const reducers, records = 2, 8000
	before := openFDs(t)
	input := make([]Pair[int32, int32], records)
	for i := range input {
		input[i] = P(int32(i), int32(i))
	}
	cfg := Config{Mappers: 3, Reducers: reducers, Shuffle: ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: 128, TempDir: t.TempDir()}}
	boom := errors.New("boom")
	var peak int
	var peakMu sync.Mutex
	note := func() {
		peakMu.Lock() // one reader of /proc/self/fd at a time: reading it takes a descriptor
		peak = max(peak, openFDs(t))
		peakMu.Unlock()
	}
	for name, tc := range map[string]struct {
		mapErrAt, reduceErrAt int32 // the input record / the key that fails, -1 for none
		want                  error
	}{
		"completes":    {-1, -1, nil},
		"map error":    {records - 1, -1, boom}, // the last record: the runs before it are on disk
		"reduce error": {-1, 500, boom},         // mid-merge
	} {
		peak = 0
		_, stats, err := Run(context.Background(), cfg, input,
			func(k, v int32, out Emitter[int32, int32]) error {
				if k == tc.mapErrAt {
					note()
					return boom
				}
				out.Emit(k%1000, v)
				return nil
			},
			func(k int32, vs []int32, out Emitter[int32, int32]) error {
				if k%100 == 0 {
					note()
				}
				if k == tc.reduceErrAt {
					return boom
				}
				out.Emit(k, int32(len(vs)))
				return nil
			})
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", name, err, tc.want)
		}
		if tc.want == nil && stats.SpillRuns < 50 {
			t.Fatalf("%s: %d runs, the test needs 50", name, stats.SpillRuns)
		}
		if peak == 0 || peak > before+reducers {
			t.Errorf("%s: %d descriptors open mid-job, %d before it: want at most one per partition (%d)", name, peak, before, reducers)
		}
		// (Fewer is possible: a finalizer may have closed a file some
		// earlier test dropped.)
		if after := openFDs(t); after > before {
			t.Errorf("%s: %d descriptors open after the job, %d before it", name, after, before)
		}
		before = min(before, openFDs(t))
	}
}

// TestSpillResidentRecordsBounded holds the spill backend to the bound
// ShuffleConfig.MemoryBudget documents, on a job whose shuffle is ten
// times its budget: never more records buffered — pending and in
// flight together — than twice the budget.
func TestSpillResidentRecordsBounded(t *testing.T) {
	const reducers, splits, budget, perSplit = 4, 4, 4000, 10000 // 40 000 records, 10x the budget
	sp, err := newSpillShuffle[int32, int64](reducers, splits, ShuffleConfig{MemoryBudget: budget, TempDir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	var wg sync.WaitGroup
	for s := 0; s < splits; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			em := newShuffleEmitter[int32, int64](sp, s, nil)
			for i := 0; i < perSplit; i++ {
				em.Emit(int32((i*31+s)%997), int64(i))
			}
			if err := em.finish(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, groups := range drainGroups[int32](t, sp) {
		for _, g := range groups {
			total += len(g.vals)
		}
	}
	if total != splits*perSplit {
		t.Fatalf("streams served %d records of %d", total, splits*perSplit)
	}
	records, spilled, runs := sp.footprint()
	if want := int64(splits * perSplit / (budget / reducers) * (budget / reducers)); records != splits*perSplit || spilled > want || runs != spilled/(budget/reducers) {
		t.Fatalf("footprint: %d records, %d spilled in %d runs; want %d records and whole shares spilled, at most %d", records, spilled, runs, splits*perSplit, want)
	}
	if peak := sp.peak.Load(); peak > 2*budget || peak < budget/2 {
		t.Fatalf("high-water mark of resident records: %d; the documented bound is 2 x MemoryBudget = %d (and a 10x job should come near the budget)", peak, 2*budget)
	}
	t.Logf("%d records through a budget of %d: %d spilled in %d runs, at most %d resident", records, budget, spilled, runs, sp.peak.Load())
}
