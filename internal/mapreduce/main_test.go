package mapreduce

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"
)

// distWorkerEnv re-executes this test binary as a dist worker process:
// TestMain sees the address, registers the test jobs, and serves
// instead of running tests. The process-kill test (dist_test.go) spawns
// workers this way, so a real SIGKILL hits a real process.
const distWorkerEnv = "MR_DIST_TEST_WORKER"

func TestMain(m *testing.M) {
	registerDistTestJobs()
	if addr := os.Getenv(distWorkerEnv); addr != "" {
		if err := ServeDistWorker(context.Background(), addr); err != nil {
			fmt.Fprintln(os.Stderr, "test dist worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// registerDistTestJobs registers every job the dist tests run. The
// registrations happen in both the coordinating test process (for
// in-process loopback workers) and the re-executed worker processes.
func registerDistTestJobs() {
	// The equivalence corpora (equivalence_test.go).
	RegisterDistMapReduce("eq-wordcount", wcMap, wcReduce)
	RegisterDistMapReduce("eq-int32", int32Map, int32Reduce)
	RegisterDistMapReduce("eq-nodeid", nodeIDMap, nodeIDReduce)

	// Chained self-messaging job: state forwarded to the node itself
	// plus a ring message to a neighbor (dist_test.go residency tests).
	RegisterDistMapReduce("ring-step", ringMap, ringReduce)
	// The ring job with an input-mutating reduce and a side output
	// (dist_consumed_test.go).
	registerMutRing()
	// One toy job as a self-message job and as a state job
	// (statejob_test.go).
	registerToyJobs()
	// Purely self-addressed variant: nothing may cross the wire once
	// the state is worker-resident.
	RegisterDistMapReduce("self-step", selfMap, ringReduce)
	// Parameterized job: the reduce adds an offset that only the
	// coordinator knows, shipped per job via Config.DistParams.
	RegisterDistJob("param-add", func(params []byte) (DistJob[int32, int64, int32, int64, int32, int64], error) {
		if len(params) != 1 {
			return DistJob[int32, int64, int32, int64, int32, int64]{},
				fmt.Errorf("param-add wants a 1-byte offset, got %d bytes", len(params))
		}
		off := int64(params[0])
		return DistJob[int32, int64, int32, int64, int32, int64]{
			Map: forwardMap[int32, int64],
			Reduce: func(k int32, vs []int64, out Emitter[int32, int64]) error {
				var sum int64
				for _, v := range vs {
					sum += v
				}
				out.Emit(k, sum+off)
				return nil
			},
		}, nil
	})
	// Chained job whose map fails on the workers: the error must
	// surface from RunDS, not hang the flush barrier.
	RegisterDistMapReduce("map-boom", func(k int32, v int64, out Emitter[int32, int64]) error {
		if k == 11 {
			return fmt.Errorf("map boom on key %d", k)
		}
		out.Emit(k, v)
		return nil
	}, ringReduce)
	// Slow reduce for the kill test: leaves a wide window in which to
	// SIGKILL a worker mid-reduce.
	RegisterDistMapReduce("slow-reduce", forwardMap[int32, int64], func(k int32, vs []int64, out Emitter[int32, int64]) error {
		time.Sleep(20 * time.Millisecond)
		out.Emit(k, int64(len(vs)))
		return nil
	})
	// Chained ring job with a slowed reduce: same output as "ring-step"
	// (the sleep changes nothing), but each round is wide enough that the
	// chaos suite's SIGKILL reliably lands mid-computation.
	RegisterDistMapReduce("slow-ring", ringMap, func(k int32, vs []int64, out Emitter[int32, int64]) error {
		time.Sleep(5 * time.Millisecond)
		return ringReduce(k, vs, out)
	})
	// Chained ring job whose map lags on the partitions worker 0 owns
	// (p mod 2 under four reducers): same output as "ring-step", but
	// worker 1's map-done reliably reaches the coordinator before
	// worker 0's first bucket relayed to it (dist_sched_test.go).
	RegisterDistMapReduce("lagging-ring", func(k int32, v int64, out Emitter[int32, int64]) error {
		if partitionIndex(k, 4)%2 == 0 {
			time.Sleep(time.Millisecond)
		}
		return ringMap(k, v, out)
	}, ringReduce)
	// Failing reduce: a user-function error must surface from Run.
	RegisterDistMapReduce("boom-reduce", forwardMap[int32, int64], func(k int32, vs []int64, out Emitter[int32, int64]) error {
		if k == 7 {
			return fmt.Errorf("boom on key %d", k)
		}
		out.Emit(k, 0)
		return nil
	})
}

// ringMap forwards each node's state to itself (identity route when
// chained) and sends a message around the ring.
func ringMap(k int32, v int64, out Emitter[int32, int64]) error {
	out.Emit(k, v*2)
	out.Emit((k+1)%ringN, v)
	return nil
}

// selfMap emits only self-addressed state.
func selfMap(k int32, v int64, out Emitter[int32, int64]) error {
	out.Emit(k, v+1)
	return nil
}

// ringReduce folds deterministically (order-sensitive).
func ringReduce(k int32, vs []int64, out Emitter[int32, int64]) error {
	acc := int64(0)
	for i, v := range vs {
		acc = acc*7 + v + int64(i)
	}
	out.Emit(k, acc)
	return nil
}

const ringN = 211

func ringInput() []Pair[int32, int64] {
	input := make([]Pair[int32, int64], ringN)
	for i := range input {
		input[i] = P(int32(i), int64(i)+3)
	}
	return input
}
