package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// RegisterDistJobs registers the worker-side functions of every
// MapReduce job the matching algorithms run, for the graph the worker
// loaded. A dist worker process (a CLI re-executed in worker mode, or a
// separately launched `bmatch -dist-connect`) calls this once after
// loading the same graph the coordinator uses — node ids, edge ids, and
// weights are deterministic given the input file, so both sides hold
// identical graphs and the registered reduces reproduce the in-process
// closures exactly.
//
// Jobs whose functions close over per-round driver state (the stack
// algorithms' dual variables and layer sets) are registered as
// parameterized factories: the coordinator ships the state in
// Config.DistParams and the factory rebuilds the closures through the
// same constructors the local path uses (dualUpdateMap / dualUpdateReduce,
// stackFilterMap / stackFilterReduce), so there is exactly one
// implementation of each function.
func RegisterDistJobs(g *graph.Bipartite) {
	mapreduce.RegisterDistJob("greedymr-round",
		func([]byte) (mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, greedyMsg, graph.NodeID, nodeState], error) {
			return mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, greedyMsg, graph.NodeID, nodeState]{
				Map:         greedyMap,
				StateReduce: greedyReduce(g),
			}, nil
		})
	mapreduce.RegisterDistJob("stack-update",
		func(params []byte) (mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, dualMsg, graph.NodeID, float64], error) {
			var job mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, dualMsg, graph.NodeID, float64]
			y, layer, _, err := decodeStackParams(params)
			if err != nil {
				return job, err
			}
			job.Map, job.StateReduce = dualUpdateMap(y, layerSet(layer)), dualUpdateReduce(y)
			return job, nil
		})
	mapreduce.RegisterDistJob("stack-filter",
		func(params []byte) (mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, filterMsg, graph.NodeID, nodeState], error) {
			var job mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, filterMsg, graph.NodeID, nodeState]
			y, layer, threshold, err := decodeStackParams(params)
			if err != nil {
				return job, err
			}
			job.Map, job.StateReduce = stackFilterMap(y), stackFilterReduce(y, layerSet(layer), threshold)
			return job, nil
		})
	mapreduce.RegisterDistReduce("stack-pop", stackPopReduce)
	mapreduce.RegisterDistReduce("strict-pop", strictPopReduce)
	mapreduce.RegisterDistReduce("strict-sublayer-filter", sublayerMaxReduce)
	for _, stage := range []string{"mm-marking", "mm-selection", "mm-matching"} {
		mapreduce.RegisterDistReduce(stage, unifyReduce(stage, g.NumEdges()))
	}
	mapreduce.RegisterDistReduce("mm-cleanup", cleanupReduce(g.NumEdges()))
}

// encodeStackParams packs the per-round state the stack reduces close
// over: the dual variables, the stacked layer, and the weakly-covered
// threshold. Floats travel as raw bits — the workers must fold the
// exact values the coordinator holds, or bit-identity dies.
func encodeStackParams(y []float64, layer []int32, threshold float64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(y)))
	for _, v := range y {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(layer)))
	for _, ei := range layer {
		buf = binary.AppendVarint(buf, int64(ei))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(threshold))
}

// decodeStackParams is the worker-side inverse of encodeStackParams.
func decodeStackParams(data []byte) (y []float64, layer []int32, threshold float64, err error) {
	bad := func() ([]float64, []int32, float64, error) {
		return nil, nil, 0, fmt.Errorf("core: malformed stack job parameters")
	}
	n, m := binary.Uvarint(data)
	if m <= 0 || n > uint64(len(data))/8 {
		return bad()
	}
	data = data[m:]
	y = make([]float64, n)
	for i := range y {
		if len(data) < 8 {
			return bad()
		}
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	n, m = binary.Uvarint(data)
	if m <= 0 || n > uint64(len(data)) {
		return bad()
	}
	data = data[m:]
	layer = make([]int32, 0, n)
	for i := uint64(0); i < n; i++ {
		x, m := binary.Varint(data)
		if m <= 0 {
			return bad()
		}
		layer = append(layer, int32(x))
		data = data[m:]
	}
	if len(data) != 8 {
		return bad()
	}
	return y, layer, math.Float64frombits(binary.LittleEndian.Uint64(data)), nil
}
