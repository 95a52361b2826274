package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

func spillMR(budget int) mapreduce.Config {
	return mapreduce.Config{
		Mappers: 4, Reducers: 4,
		Shuffle: mapreduce.ShuffleConfig{
			Backend:      mapreduce.ShuffleSpill,
			MemoryBudget: budget,
		},
	}
}

func randomTestGraph(t *testing.T, items, consumers int, edgeProb float64) *graph.Bipartite {
	t.Helper()
	return graph.RandomBipartite(graph.RandomConfig{
		NumItems:     items,
		NumConsumers: consumers,
		EdgeProb:     edgeProb,
		MaxWeight:    2,
		MaxCapacity:  4,
		Seed:         99,
	})
}

// TestAlgorithmsIdenticalAcrossShuffleBackends runs every MapReduce
// algorithm on both shuffle backends with a spill budget far below the
// shuffle volume and requires bit-identical matchings: the spill path
// must reproduce the memory path's grouping and value order exactly,
// including the round-trip of every message type in spill.go.
func TestAlgorithmsIdenticalAcrossShuffleBackends(t *testing.T) {
	g := randomTestGraph(t, 60, 40, 0.15)
	ctx := context.Background()
	memMR := mapreduce.Config{Mappers: 4, Reducers: 4}

	runs := []struct {
		name string
		run  func(mr mapreduce.Config) (*Result, error)
	}{
		{"greedymr", func(mr mapreduce.Config) (*Result, error) {
			return GreedyMR(ctx, g.Clone(), GreedyMROptions{MR: mr})
		}},
		{"stackmr", func(mr mapreduce.Config) (*Result, error) {
			return StackMR(ctx, g.Clone(), StackOptions{MR: mr, Seed: 5})
		}},
		{"stackgreedymr", func(mr mapreduce.Config) (*Result, error) {
			return StackGreedyMR(ctx, g.Clone(), StackOptions{MR: mr, Seed: 5})
		}},
		{"stackmrstrict", func(mr mapreduce.Config) (*Result, error) {
			return StackMRStrict(ctx, g.Clone(), StackOptions{MR: mr, Seed: 5})
		}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			mem, err := tc.run(memMR)
			if err != nil {
				t.Fatalf("memory backend: %v", err)
			}
			spill, err := tc.run(spillMR(200))
			if err != nil {
				t.Fatalf("spill backend: %v", err)
			}
			if !reflect.DeepEqual(mem.Matching.Edges(), spill.Matching.Edges()) {
				t.Fatalf("matchings differ: memory value=%v spill value=%v",
					mem.Matching.Value(), spill.Matching.Value())
			}
			if mem.Rounds != spill.Rounds {
				t.Fatalf("round counts differ: %d vs %d", mem.Rounds, spill.Rounds)
			}
			if spill.Shuffle.SpilledRecords == 0 {
				t.Fatalf("spill backend never spilled (shuffle=%d records)",
					spill.Shuffle.ShuffleRecords)
			}
		})
	}
}

// TestMessageCodecsRoundTrip exercises the AppendBinary/UnmarshalBinary
// pairs directly: the one shuffled message that has a codec of its own,
// and the records the dist backend keeps resident — among them the
// mmNode the cleanup stage emits, flags cleared, ids of any sign.
func TestMessageCodecsRoundTrip(t *testing.T) {
	mm := &mmNode{B: 2, Adj: []mmEdge{
		{half: half{ID: 1, Other: 4, W: 2.5}, markedBySelf: true, selByOther: true},
		{half: half{ID: 2, Other: 5, W: 0}, inF: true, markedByOther: true, selBySelf: true},
	}}
	adj := []half{{ID: 7, Other: 12, W: 1.25}, {ID: 9, Other: 0, W: -0.5}}
	cases := []struct {
		name string
		in   interface {
			AppendBinary([]byte) ([]byte, error)
		}
		out interface {
			UnmarshalBinary([]byte) error
		}
	}{
		{"dualMsg-edge", dualMsg{edge: 6, yOverB: 0.75}, &dualMsg{}},
		{"dualMsg-negative", dualMsg{edge: 2, yOverB: -1.5}, &dualMsg{}},
		{"nodeState", nodeState{B: 3, Adj: adj}, &nodeState{}},
		{"stackNode", stackNode{nodeState: nodeState{B: 3, Adj: adj}, Y: 0.1}, &stackNode{}},
		{"mmNode", *mm, &mmNode{}},
		{"mmNode-cleanup-out", mmNode{B: 1, Adj: []mmEdge{{half: half{ID: -8000, Other: 4, W: 3}}, {half: half{ID: 5, Other: 1 << 30, W: 1}}}}, &mmNode{}},
		{"popNode", popNode{Residual: 2, Edges: []int32{1, 64, -9}}, &popNode{}},
		{"popNode-saturated", popNode{Residual: -1, Edges: []int32{}}, &popNode{}},
		{"edgeDeltas", edgeDeltas{1, 2, 0}, &edgeDeltas{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := tc.in.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.out.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			got := reflect.ValueOf(tc.out).Elem().Interface()
			if !reflect.DeepEqual(tc.in, got) {
				t.Fatalf("round trip changed message:\n in: %#v\nout: %#v", tc.in, got)
			}
		})
	}
}

// TestShuffledMessageSizes pins the in-memory size of every value type
// the matching algorithms shuffle. A Pair is the key plus this, and the
// engine writes it on Emit, copies it in the group gather and moves it
// again in the group sort, once per shuffled record (12.5 M on the dense
// benchmark job) — so a field carried by value, where a scalar would do,
// multiplies the job's memory traffic. GreedyMR's message carried its
// 32-byte nodeState that way until it cost a quarter of the dense job's
// wall, then a pointer to it until the spill and dist backends spent more
// on encoding that state than on anything else; the maximal-matching
// stages' messages carried one until they became state jobs too. Every
// node-view job is a state job now, its reduce handed the node's state:
// no message holds a pointer, so no pair buffer is anything the collector
// has to scan.
func TestShuffledMessageSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		max  uintptr
	}{
		{"edgeMsg", reflect.TypeFor[edgeMsg](), 4},
		{"dualMsg", reflect.TypeFor[dualMsg](), 16},
	} {
		if got := tc.typ.Size(); got > tc.max {
			t.Errorf("%s is %d bytes, want at most %d: every shuffled record carries one", tc.name, got, tc.max)
		}
		if holdsPointer(tc.typ) {
			t.Errorf("%s holds a pointer: its job's reduce is handed the node's state, a message must not carry it", tc.name)
		}
	}
}

// holdsPointer walks a type for anything the collector would scan.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true // pointers, slices, strings, maps, channels, funcs, interfaces
}

// TestMessageCodecsRejectCorruptData checks that damaged bytes surface as
// an error instead of a silently wrong value — among them the bytes a
// dualMsg had while it could still carry the node's state, which a worker
// of an earlier protocol generation would send, and a stackNode cut short
// of its dual.
func TestMessageCodecsRejectCorruptData(t *testing.T) {
	data, err := mmNode{B: 2, Adj: []mmEdge{{half: half{ID: 1, Other: 2, W: 3}}}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var mm mmNode
	if err := mm.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Error("truncated mmNode decoded without error")
	}
	if err := mm.UnmarshalBinary(append(data[:len(data)-1:len(data)-1], 1<<5)); err == nil {
		t.Error("an mmEdge with an unknown flag bit decoded without error")
	}
	edge, err := dualMsg{edge: 6, yOverB: 0.75}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var d dualMsg
	if err := d.UnmarshalBinary(append(edge, 0xAA)); err == nil {
		t.Error("oversized dualMsg decoded without error")
	}
	state, err := nodeState{B: 3, Adj: []half{{ID: 7, Other: 12, W: 1.25}, {ID: 9, Other: 0, W: -0.5}}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.UnmarshalBinary(append([]byte{1}, state...)); err == nil {
		t.Error("a dualMsg carrying a node state decoded without error")
	}
	var sn stackNode
	if err := sn.UnmarshalBinary(state); err == nil {
		t.Error("a nodeState without its dual decoded as a stackNode")
	}
}
