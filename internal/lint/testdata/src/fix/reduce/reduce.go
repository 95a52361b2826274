// ReduceFunc retention fixtures for the noretain rule. A function is a
// reducer when it matches func(K, []V, mapreduce.Emitter[K2, V2]) or
// the state reduce's func(K, *S, []V, mapreduce.Emitter[K2, V2]) —
// inside one, the values slice and its sub-slices must not outlive the
// call.
package reduce

import "fix/internal/mapreduce"

type sink struct {
	kept []int
}

var (
	leaked     []int
	globalRows [][]int
	later      func() int
)

func (s *sink) reduceStoresField(key string, values []int, out mapreduce.Emitter[string, int]) error {
	s.kept = values // want `\[noretain\] values slice stored into field kept`
	return nil
}

func reduceAssignsGlobal(key string, values []int, out mapreduce.Emitter[string, int]) error {
	leaked = values // want `\[noretain\] values slice assigned to leaked`
	return nil
}

func reduceAppendsHeader(key string, values []int, out mapreduce.Emitter[string, int]) error {
	globalRows = append(globalRows, values) // want `\[noretain\] append stores the values slice header as an element`
	return nil
}

func reduceSubsliceEscapes(key string, values []int, out mapreduce.Emitter[string, int]) error {
	head := values[:1]
	leaked = head // want `\[noretain\] values slice assigned to leaked`
	return nil
}

func reduceEmitsSlice(key string, values []int, out mapreduce.Emitter[string, []int]) error {
	out.Emit(key, values) // want `\[noretain\] Emit retains its value in the shuffle bucket`
	return nil
}

func reduceCaptures(key string, values []int, out mapreduce.Emitter[string, int]) error {
	later = func() int { // want `\[noretain\] function literal captures the values slice`
		return len(values)
	}
	return nil
}

// reduceClones is the sanctioned idiom: clone before storing, spread
// into append, emit scalars.
func reduceClones(key string, values []int, out mapreduce.Emitter[string, int]) error {
	cp := append([]int(nil), values...)
	leaked = cp
	sum := 0
	for _, v := range values {
		sum += v
	}
	out.Emit(key, sum)
	return nil
}

// notAReducer has no Emitter parameter, so the rule ignores it even
// though it stores its slice argument.
func notAReducer(s *sink, values []int) {
	s.kept = values
}

type postings []int

// indexReduce is internal/simjoin/simjoin.go's indexReduce without its
// clone: the conversion to postings shares the values' backing array.
func indexReduce(t int32, ps []int, out mapreduce.Emitter[int32, postings]) error {
	out.Emit(t, postings(ps)) // want `\[noretain\] Emit retains its value in the shuffle bucket`
	return nil
}

type edgeMsg int32

type mmNode struct {
	Adj  []int32
	msgs []edgeMsg
}

// unifyReduce is internal/core/maximal.go's unifyReduce, a state reduce,
// keeping its messages in the node's record instead of stamping them into
// a mark table.
func unifyReduce(v int32, state *mmNode, msgs []edgeMsg, out mapreduce.Emitter[int32, mmNode]) error {
	state.msgs = msgs // want `\[noretain\] values slice stored into field msgs`
	out.Emit(v, *state)
	return nil
}

// stateReduceStamps reads its messages and keeps none of them.
func stateReduceStamps(v int32, state *mmNode, msgs []edgeMsg, out mapreduce.Emitter[int32, mmNode]) error {
	for _, m := range msgs {
		state.Adj = append(state.Adj, int32(m))
	}
	out.Emit(v, *state)
	return nil
}
