package mapreduce

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// wordCount runs the canonical MapReduce example over the given text with
// the given configuration.
func wordCount(t *testing.T, cfg Config, text string) map[string]int {
	t.Helper()
	input := []Pair[int, string]{}
	for i, line := range strings.Split(text, "\n") {
		input = append(input, P(i, line))
	}
	out, stats, err := Run(context.Background(), cfg, input,
		func(_ int, line string, out Emitter[string, int]) error {
			for _, w := range strings.Fields(line) {
				out.Emit(w, 1)
			}
			return nil
		},
		func(word string, counts []int, out Emitter[string, int]) error {
			total := 0
			for _, c := range counts {
				total += c
			}
			out.Emit(word, total)
			return nil
		})
	if err != nil {
		t.Fatalf("wordcount failed: %v", err)
	}
	if stats.MapInputRecords != int64(len(input)) {
		t.Errorf("MapInputRecords = %d, want %d", stats.MapInputRecords, len(input))
	}
	res := make(map[string]int)
	for _, p := range out {
		res[p.Key] = p.Value
	}
	return res
}

func TestWordCount(t *testing.T) {
	text := "the quick brown fox\njumps over the lazy dog\nthe fox"
	got := wordCount(t, Config{Mappers: 3, Reducers: 4}, text)
	want := map[string]int{
		"the": 3, "quick": 1, "brown": 1, "fox": 2, "jumps": 1,
		"over": 1, "lazy": 1, "dog": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wordcount = %v, want %v", got, want)
	}
}

func TestWordCountSingleWorker(t *testing.T) {
	text := "a b a\nc a b"
	got := wordCount(t, Config{Mappers: 1, Reducers: 1}, text)
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wordcount = %v, want %v", got, want)
	}
}

func TestOutputDeterministicAcrossWorkerCounts(t *testing.T) {
	input := make([]Pair[int, int], 500)
	for i := range input {
		input[i] = P(i, i*i)
	}
	mapFn := func(k, v int, out Emitter[int, int]) error {
		out.Emit(k%37, v)
		out.Emit(k%11, v+1)
		return nil
	}
	redFn := func(k int, vs []int, out Emitter[int, int]) error {
		s := 0
		for _, v := range vs {
			s += v
		}
		out.Emit(k, s)
		return nil
	}
	var first []Pair[int, int]
	for _, workers := range []int{1, 2, 3, 8, 16} {
		out, _, err := Run(context.Background(),
			Config{Mappers: workers, Reducers: workers}, input, mapFn, redFn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = out
			continue
		}
		if !reflect.DeepEqual(out, first) {
			t.Errorf("workers=%d: output differs from workers=1", workers)
		}
	}
}

func TestValuesOrderPreservedWithinSplit(t *testing.T) {
	// A single mapper split must deliver values to the reducer in
	// emission order.
	input := []Pair[int, int]{P(0, 0)}
	out, _, err := Run(context.Background(), Config{Mappers: 1, Reducers: 1}, input,
		func(_ int, _ int, out Emitter[string, int]) error {
			for i := 0; i < 10; i++ {
				out.Emit("k", i)
			}
			return nil
		},
		func(_ string, vs []int, out Emitter[string, []int]) error {
			out.Emit("k", vs)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(out[0].Value, want) {
		t.Errorf("values = %v, want %v", out[0].Value, want)
	}
}

func TestAllValuesForKeyMeetInOneReduceCall(t *testing.T) {
	// Every key must be reduced exactly once regardless of how many
	// mappers emitted it.
	input := make([]Pair[int, int], 200)
	for i := range input {
		input[i] = P(i, 1)
	}
	out, stats, err := Run(context.Background(), Config{Mappers: 7, Reducers: 5}, input,
		func(k, v int, out Emitter[int, int]) error {
			out.Emit(k%13, v)
			return nil
		},
		func(k int, vs []int, out Emitter[int, int]) error {
			out.Emit(k, len(vs))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 13 {
		t.Fatalf("got %d reduce outputs, want 13", len(out))
	}
	total := 0
	for _, p := range out {
		total += p.Value
	}
	if total != 200 {
		t.Errorf("total values seen by reducers = %d, want 200", total)
	}
	if stats.ReduceGroups != 13 {
		t.Errorf("ReduceGroups = %d, want 13", stats.ReduceGroups)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	_, _, err := Run(context.Background(), Config{Mappers: 4, Reducers: 2},
		[]Pair[int, int]{P(1, 1), P(2, 2), P(3, 3)},
		func(k, v int, out Emitter[int, int]) error {
			if k == 2 {
				return sentinel
			}
			out.Emit(k, v)
			return nil
		},
		func(k int, vs []int, out Emitter[int, int]) error {
			out.Emit(k, 0)
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	sentinel := errors.New("reduce boom")
	_, _, err := Run(context.Background(), Config{},
		[]Pair[int, int]{P(1, 1)},
		forwardMap[int, int],
		func(k int, vs []int, out Emitter[int, int]) error {
			return sentinel
		})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
}

func TestNilFunctionsRejected(t *testing.T) {
	_, _, err := Run[int, int, int, int, int, int](context.Background(), Config{}, nil, nil, nil)
	if err == nil {
		t.Error("expected error for nil functions")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	input := make([]Pair[int, int], 1000)
	for i := range input {
		input[i] = P(i, i)
	}
	_, _, err := Run(ctx, Config{Mappers: 2, Reducers: 2}, input,
		forwardMap[int, int], gatherReduce[int, int])
	if err == nil {
		t.Error("expected context cancellation error")
	}
}

func TestEmptyInput(t *testing.T) {
	out, stats, err := Run(context.Background(), Config{},
		nil, forwardMap[int, int], gatherReduce[int, int])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("got %d outputs, want 0", len(out))
	}
	if stats.MapInputRecords != 0 || stats.ReduceGroups != 0 {
		t.Errorf("nonzero stats for empty input: %+v", stats)
	}
}

func TestStatsAccounting(t *testing.T) {
	input := []Pair[int, int]{P(1, 1), P(2, 2), P(3, 3)}
	_, stats, err := Run(context.Background(), Config{Name: "acct"}, input,
		func(k, v int, out Emitter[int, int]) error {
			out.Emit(k, v)
			out.Emit(k, v)
			return nil
		},
		func(k int, vs []int, out Emitter[int, int]) error {
			out.Emit(k, len(vs))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapInputRecords != 3 || stats.MapOutputRecords != 6 ||
		stats.ShuffleRecords != 6 || stats.ReduceGroups != 3 ||
		stats.ReduceOutputRecords != 3 {
		t.Errorf("stats = %+v", stats)
	}
	if got := stats.String(); !strings.Contains(got, "acct") {
		t.Errorf("String() = %q, want job name included", got)
	}
}

func TestSplitRangeProperties(t *testing.T) {
	prop := func(n uint16, w uint8) bool {
		spans := splitRange(int(n), int(w))
		// Spans must tile [0, n) exactly.
		covered := 0
		prev := 0
		for _, sp := range spans {
			if sp.lo != prev || sp.hi < sp.lo {
				return false
			}
			covered += sp.hi - sp.lo
			prev = sp.hi
		}
		if covered != int(n) {
			return false
		}
		// Balance: sizes differ by at most 1.
		if len(spans) > 1 {
			min, max := spans[0].hi-spans[0].lo, spans[0].hi-spans[0].lo
			for _, sp := range spans {
				sz := sp.hi - sp.lo
				if sz < min {
					min = sz
				}
				if sz > max {
					max = sz
				}
			}
			if max-min > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartitionIndexInRange(t *testing.T) {
	prop := func(key int64, r uint8) bool {
		n := int(r)%16 + 1
		idx := partitionIndex(key, n)
		return idx >= 0 && idx < n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPartitionIndexStable(t *testing.T) {
	for _, key := range []string{"a", "b", "node-42", ""} {
		if partitionIndex(key, 7) != partitionIndex(key, 7) {
			t.Errorf("partitionIndex(%q) not stable", key)
		}
	}
}

func TestPartitionSpread(t *testing.T) {
	// Consecutive integer ids must not all collapse into one partition.
	const r = 8
	seen := make(map[int]int)
	for i := 0; i < 1000; i++ {
		seen[partitionIndex(int32(i), r)]++
	}
	if len(seen) < r {
		t.Errorf("only %d of %d partitions used for consecutive ids", len(seen), r)
	}
	for part, count := range seen {
		if count > 400 {
			t.Errorf("partition %d received %d of 1000 keys: badly skewed", part, count)
		}
	}
}

// lessKey is the engine's key order as a one-off comparison, for the
// reference models in these tests.
func lessKey[K comparable](a, b K) bool { return keyShapeOf[K]().cmp()(a, b) < 0 }

func TestLessKeyOrdersTupleKeys(t *testing.T) {
	a := [2]int32{1, 5}
	b := [2]int32{1, 7}
	c := [2]int32{2, 0}
	if !lessKey(a, b) || !lessKey(b, c) || lessKey(c, a) {
		t.Error("lessKey tuple ordering broken")
	}
}
