package mapreduce

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mapreduce/remote"
)

// TestDistLineageRecycledInputRefuses: a job the coordinator mapped
// (RunDS over a coordinator-held input) can be run again only while that
// input is live. A ring chain starts from a pooled coordinator-held
// Dataset and recycles it after round 0; worker 1 is then severed at the
// first frame of round 1, so the partitions it held of round 0's output
// must be made again, and the job that made them has no input left to
// map. Round 1 fails with a WorkerLostError: it never maps the emptied
// input, whose buffers the pool hands out again, and never returns a
// wrong answer.
func TestDistLineageRecycledInputRefuses(t *testing.T) {
	ctx := context.Background()
	pool := NewBufferPool()
	in, _, err := RunDS(ctx, Config{Mappers: 4, Reducers: 4, Pool: pool},
		PartitionDataset(ringInput(), 4), ringMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}
	cl := startTestCluster(t, 2)
	cfg := distCfg4(cl, "ring-step")
	cfg.Pool = pool
	ds, _, err := RunDS(ctx, cfg, in, ringMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}
	in.Recycle()
	if err := cl.InjectFault(1, &remote.Fault{Op: remote.FaultSever, AfterWrites: 1}); err != nil {
		t.Fatal(err)
	}
	next, _, err := RunDS(ctx, cfg, ds, ringMap, ringReduce)
	var lost *WorkerLostError
	if !errors.As(err, &lost) {
		if err == nil {
			next.Recycle()
		}
		t.Fatalf("round 1 after its lineage's coordinator-held input was recycled: got %v, want a WorkerLostError", err)
	}
	t.Logf("refused: %v", err)
	ds.Recycle()
}
