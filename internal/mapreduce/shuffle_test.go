package mapreduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// nodeKey mimics graph.NodeID: a named scalar, which must reach the
// integer lane of the codec by kind.
type nodeKey int32

// recVal is a struct value: it has no kind lane, so it is shuffled
// through its own encoding methods, like the algorithms' messages.
type recVal struct {
	N int
	S string
}

func (v recVal) AppendBinary(buf []byte) ([]byte, error) {
	return append(binary.AppendVarint(buf, int64(v.N)), v.S...), nil
}

func (v *recVal) UnmarshalBinary(data []byte) error {
	n, m := binary.Varint(data)
	if m <= 0 {
		return fmt.Errorf("recVal: truncated")
	}
	v.N, v.S = int(n), string(data[m:])
	return nil
}

func spillCfg(budget int) Config {
	return Config{
		Mappers: 4, Reducers: 3,
		Shuffle: ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: budget},
	}
}

// concatJob is deliberately order-sensitive: the reduce output depends
// on the exact order values arrive in, so any backend that breaks the
// deterministic (split, emission) value order fails the comparison.
func concatJob(t *testing.T, cfg Config, n int) []Pair[string, string] {
	t.Helper()
	input := make([]Pair[int, int], n)
	for i := range input {
		input[i] = P(i, i)
	}
	out, _, err := Run(context.Background(), cfg, input,
		func(k, v int, out Emitter[string, string]) error {
			out.Emit(fmt.Sprintf("k%03d", k%17), fmt.Sprintf("v%d", v))
			out.Emit("all", fmt.Sprintf("a%d", v))
			return nil
		},
		func(k string, vs []string, out Emitter[string, string]) error {
			out.Emit(k, strings.Join(vs, ","))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestShuffleBackendsEquivalent(t *testing.T) {
	mem := concatJob(t, Config{Mappers: 4, Reducers: 3}, 500)
	spill := concatJob(t, spillCfg(64), 500)
	if !reflect.DeepEqual(mem, spill) {
		t.Fatalf("backends disagree:\nmemory: %v\nspill:  %v", mem[:3], spill[:3])
	}
}

func TestSpillBackendActuallySpills(t *testing.T) {
	input := make([]Pair[int32, int32], 2000)
	for i := range input {
		input[i] = P(int32(i), int32(i))
	}
	cfg := spillCfg(100)
	_, stats, err := Run(context.Background(), cfg, input,
		forwardMap[int32, int32], gatherReduce[int32, int32])
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpilledRecords == 0 || stats.SpillRuns == 0 {
		t.Fatalf("no spill recorded for 2000 records under a budget of 100: %+v", stats)
	}
	if stats.ShuffleRecords != 2000 {
		t.Fatalf("ShuffleRecords = %d, want 2000", stats.ShuffleRecords)
	}
	if stats.ReduceGroups != 2000 {
		t.Fatalf("ReduceGroups = %d, want 2000", stats.ReduceGroups)
	}
}

func TestSpillNamedKeyAndMarshalerValue(t *testing.T) {
	input := make([]Pair[int, int], 300)
	for i := range input {
		input[i] = P(i, i)
	}
	run := func(cfg Config) []Pair[nodeKey, int] {
		out, _, err := Run(context.Background(), cfg, input,
			func(k, v int, out Emitter[nodeKey, recVal]) error {
				out.Emit(nodeKey(k%23), recVal{N: v, S: fmt.Sprintf("s%d", v)})
				return nil
			},
			func(k nodeKey, vs []recVal, out Emitter[nodeKey, int]) error {
				sum := 0
				for _, v := range vs {
					sum += v.N + len(v.S)
				}
				out.Emit(k, sum)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mem := run(Config{Mappers: 4, Reducers: 3})
	spill := run(spillCfg(32))
	if !reflect.DeepEqual(mem, spill) {
		t.Fatalf("named-key/marshaler-value job disagrees across backends")
	}
}

func TestSpillEmptyStructValues(t *testing.T) {
	// The simjoin probe job shuffles [2]int32 keys with struct{} values.
	input := make([]Pair[int, int], 200)
	for i := range input {
		input[i] = P(i, i)
	}
	run := func(cfg Config) []Pair[[2]int32, int] {
		out, _, err := Run(context.Background(), cfg, input,
			func(k, v int, out Emitter[[2]int32, struct{}]) error {
				out.Emit([2]int32{int32(k % 7), int32(k % 3)}, struct{}{})
				return nil
			},
			func(k [2]int32, vs []struct{}, out Emitter[[2]int32, int]) error {
				out.Emit(k, len(vs))
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !reflect.DeepEqual(run(Config{Mappers: 3, Reducers: 2}), run(spillCfg(16))) {
		t.Fatal("empty-struct job disagrees across backends")
	}
}

func TestUnknownShuffleBackend(t *testing.T) {
	cfg := Config{Shuffle: ShuffleConfig{Backend: "carrier-pigeon"}}
	_, _, err := Run(context.Background(), cfg, []Pair[int, int]{P(1, 1)},
		forwardMap[int, int], gatherReduce[int, int])
	if err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("unknown backend not rejected: %v", err)
	}
}

// TestSpillStress10x completes a job whose shuffle volume exceeds the
// memory budget by well over 10x and checks the output against the
// in-memory backend record for record.
func TestSpillStress10x(t *testing.T) {
	const n, fanout, budget = 5000, 8, 2000 // 40k shuffled records, 20x budget
	input := make([]Pair[int32, int32], n)
	for i := range input {
		input[i] = P(int32(i), int32(i))
	}
	mapFn := func(k, v int32, out Emitter[int32, int32]) error {
		for f := int32(0); f < fanout; f++ {
			out.Emit((k*31+f)%997, v+f)
		}
		return nil
	}
	redFn := func(k int32, vs []int32, out Emitter[int32, int64]) error {
		var s int64
		for _, v := range vs {
			s += int64(v)
		}
		out.Emit(k, s*int64(len(vs)))
		return nil
	}
	mem, _, err := Run(context.Background(), Config{Mappers: 4, Reducers: 4}, input, mapFn, redFn)
	if err != nil {
		t.Fatal(err)
	}
	spill, stats, err := Run(context.Background(), spillCfg(budget), input, mapFn, redFn)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShuffleRecords < 10*budget {
		t.Fatalf("stress job shuffled %d records, want >= %d", stats.ShuffleRecords, 10*budget)
	}
	if stats.SpilledRecords == 0 {
		t.Fatal("stress job never spilled")
	}
	if !reflect.DeepEqual(mem, spill) {
		t.Fatal("stress job output disagrees across backends")
	}
	t.Logf("stress: shuffled=%d spilled=%d runs=%d (budget %d)",
		stats.ShuffleRecords, stats.SpilledRecords, stats.SpillRuns, budget)
}

// badKey is a composite key that encodes itself, so the codec accepts
// it on every backend; the engine refuses it as a key all the same
// (TestUnorderedKeyTypesRefused), because no kind it orders is a struct.
type badKey struct {
	A, B string
}

func (k badKey) AppendBinary(buf []byte) ([]byte, error) {
	return append(binary.AppendUvarint(buf, uint64(len(k.A))), k.A+k.B...), nil
}

func (k *badKey) UnmarshalBinary(data []byte) error {
	n, m := binary.Uvarint(data)
	if m <= 0 || n > uint64(len(data)-m) {
		return fmt.Errorf("badKey: truncated")
	}
	k.A, k.B = string(data[m:m+int(n)]), string(data[m+int(n):])
	return nil
}
