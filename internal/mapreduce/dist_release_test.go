package mapreduce_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// TestDistGreedyMRReleasesResidency: a cluster outlives the computations
// it runs (the benchmark reuses one for every job of a run), so an
// algorithm whose state lives on it must leave nothing there. GreedyMR's
// loop ends holding a registered state — empty at the fixed point, live
// when StopAfterRounds cut it short — and releases it before returning:
// after two back-to-back runs of each kind the coordinator tracks no
// resident dataset and no worker holds a partition or a seed.
func TestDistGreedyMRReleasesResidency(t *testing.T) {
	g := graph.RandomBipartite(graph.RandomConfig{
		NumItems: 60, NumConsumers: 30, EdgeProb: 0.2,
		MaxWeight: 3, MaxCapacity: 3, Seed: 5,
	})
	core.RegisterDistJobs(g)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	cl, err := mapreduce.StartDistCluster(2, mapreduce.DistClusterOptions{
		Timeout: 30 * time.Second,
		OnListen: func(addr string) {
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					mapreduce.ServeDistWorker(ctx, addr)
				}()
			}
		},
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	defer func() {
		cl.Close()
		cancel()
		wg.Wait()
	}()
	mr := mapreduce.Config{
		Mappers: 4, Reducers: 4,
		Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
		Dist:    cl,
	}
	for _, stopAfter := range []int{0, 0, 2, 2} {
		res, err := core.GreedyMR(ctx, g, core.GreedyMROptions{MR: mr, StopAfterRounds: stopAfter})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds < 2 {
			t.Fatalf("degenerate instance: %d rounds", res.Rounds)
		}
	}
	coordinator, workers, err := cl.ResidentLeft()
	if err != nil {
		t.Fatal(err)
	}
	if coordinator != 0 || workers != 0 {
		t.Fatalf("four GreedyMR runs left %d resident datasets registered on the coordinator and %d partitions on the workers", coordinator, workers)
	}
}
