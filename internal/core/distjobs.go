package core

import (
	"encoding/binary"
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
// identical graphs and the registered functions reproduce the in-process
// closures exactly.
//
// Every job is registered with its map, so it runs where its input
// resides: the node-view jobs are state jobs, and the pop phases' jobs
// read only their records (popNode, edgeDeltas). Jobs whose functions
// close over per-round driver state (the stack algorithms' layer and
// threshold, the maximal matching's strategy, seed and iteration) are
// registered as parameterized factories: the coordinator ships the state
// in Config.DistParams (runNodeJob) and the factory rebuilds the closures
// through the same constructors the local path uses, so there is exactly
// one implementation of each function.
func RegisterDistJobs(g *graph.Bipartite) {
	mapreduce.RegisterDistBuild("greedymr-view", greedyViewBuilder(g))
	mapreduce.RegisterDistJob("greedymr-round",
		func([]byte) (mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, edgeMsg, graph.NodeID, nodeState], error) {
			return mapreduce.DistJob[graph.NodeID, nodeState, graph.NodeID, edgeMsg, graph.NodeID, nodeState]{
				Map:         greedyMap,
				StateReduce: greedyReduce(g),
			}, nil
		})
	mapreduce.RegisterDistJob("stack-update",
		func(params []byte) (mapreduce.DistJob[graph.NodeID, stackNode, graph.NodeID, dualMsg, graph.NodeID, stackNode], error) {
			var job mapreduce.DistJob[graph.NodeID, stackNode, graph.NodeID, dualMsg, graph.NodeID, stackNode]
			layer, _, err := decodeStackParams(params)
			if err != nil {
				return job, err
			}
			job.Map, job.StateReduce = dualUpdateMap(layerSet(layer)), dualUpdateReduce
			return job, nil
		})
	mapreduce.RegisterDistJob("stack-filter",
		func(params []byte) (mapreduce.DistJob[graph.NodeID, stackNode, graph.NodeID, dualMsg, graph.NodeID, stackNode], error) {
			var job mapreduce.DistJob[graph.NodeID, stackNode, graph.NodeID, dualMsg, graph.NodeID, stackNode]
			layer, threshold, err := decodeStackParams(params)
			if err != nil {
				return job, err
			}
			job.Map, job.StateReduce = stackFilterMap, stackFilterReduce(layerSet(layer), threshold)
			return job, nil
		})
	for _, s := range mmStages {
		mapreduce.RegisterDistJob(s.name,
			func(params []byte) (mapreduce.DistJob[graph.NodeID, mmNode, graph.NodeID, edgeMsg, graph.NodeID, mmNode], error) {
				var job mapreduce.DistJob[graph.NodeID, mmNode, graph.NodeID, edgeMsg, graph.NodeID, mmNode]
				cfg, iter, err := decodeMMParams(params)
				if err != nil {
					return job, err
				}
				cfg.numEdges = g.NumEdges()
				job.Map, job.StateReduce = s.mapFn(cfg, iter), unifyReduce(s.name, cfg.numEdges)
				return job, nil
			})
	}
	mapreduce.RegisterDistJob("mm-cleanup",
		func([]byte) (mapreduce.DistJob[graph.NodeID, mmNode, graph.NodeID, edgeMsg, graph.NodeID, mmNode], error) {
			return mapreduce.DistJob[graph.NodeID, mmNode, graph.NodeID, edgeMsg, graph.NodeID, mmNode]{
				Map:         cleanupMap,
				StateReduce: cleanupReduce(g.NumEdges()),
			}, nil
		})
	mapreduce.RegisterDistMapReduce("stack-pop", stackPopMap, stackPopReduce)
	mapreduce.RegisterDistMapReduce("strict-pop", strictPopMap, strictPopReduce)
	mapreduce.RegisterDistMapReduce("strict-sublayer-filter", sublayerMaxMap, sublayerMaxReduce)
}

// encodeStackParams packs what the stack jobs close over: the stacked
// layer and the weakly-covered threshold. The duals they read are in the
// records, so the parameters do not grow with the graph. The threshold
// travels as raw bits — the workers must compare against the exact value
// the coordinator holds, or bit-identity dies.
func encodeStackParams(layer []int32, threshold float64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(layer)))
	for _, ei := range layer {
		buf = binary.AppendVarint(buf, int64(ei))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(threshold))
}

// decodeStackParams is the worker-side inverse of encodeStackParams. Like
// every decoder here it accepts exactly what its encoder writes
// (FuzzJobParams).
func decodeStackParams(data []byte) (layer []int32, threshold float64, err error) {
	r := &spillReader{data: data}
	layer = make([]int32, r.count(1))
	for i := range layer {
		layer[i] = r.id()
	}
	threshold = r.float()
	if err := r.err("stack job parameters"); err != nil {
		return nil, 0, err
	}
	return layer, threshold, nil
}

// encodeMMParams packs what the maximal-matching stage maps close over:
// the marking strategy, the seed and the iteration.
func encodeMMParams(cfg maximalConfig, iter int) []byte {
	buf := binary.AppendVarint([]byte{byte(cfg.strategy)}, cfg.seed)
	return binary.AppendVarint(buf, int64(iter))
}

// decodeMMParams is the worker-side inverse of encodeMMParams; the
// returned config's numEdges is the worker's to fill in.
func decodeMMParams(data []byte) (cfg maximalConfig, iter int, err error) {
	r := &spillReader{data: data}
	if cfg.strategy = MarkingStrategy(r.byte()); cfg.strategy > MarkHeaviest {
		r.bad = true
	}
	cfg.seed = r.varint()
	iter = int(r.id())
	return cfg, iter, r.err("maximal-matching job parameters")
}
