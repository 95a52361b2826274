// Map-iteration-order fixtures for the determinism rule. Each firing
// line carries a trailing `// want` expectation checked by
// golden_test.go; functions without one must stay finding-free.
package det

import (
	"sort"
	"time"

	"fix/internal/mapreduce"
)

func emitInMapRange(m map[string]int, out mapreduce.Emitter[string, int]) {
	for k, v := range m {
		out.Emit(k, v) // want `\[determinism\] Emit inside a range over a map`
	}
}

func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `\[determinism\] append to keys inside a range over a map`
	}
	return keys
}

func appendThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loopLocalAppend(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		for _, v := range vs {
			local = append(local, v*2)
		}
		total += len(local)
	}
	return total
}

func clockInSchedulingCode() int64 {
	// Fine: this package is neither internal/core nor a codec or spill
	// file, so wall-clock reads are allowed (heartbeats, deadlines,
	// stats).
	return time.Now().UnixNano()
}

// nodePairs is nodePairsSorted of internal/core/stackmr.go with its sort
// taken out: the job input reaches the engine in map iteration order.
func nodePairs(perNode map[int32][]int32) []mapreduce.Pair[int32, []int32] {
	input := make([]mapreduce.Pair[int32, []int32], 0, len(perNode))
	for v, edges := range perNode {
		input = append(input, mapreduce.Pair[int32, []int32]{Key: v, Value: edges}) // want `\[determinism\] append to input inside a range over a map`
	}
	return input
}
