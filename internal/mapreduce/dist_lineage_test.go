package mapreduce

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/mapreduce/remote"
)

// TestDistLineageRecycledInputRecovers: a job over a coordinator-held
// input maps on the workers from a copy placed there (placeResident), and
// that copy, not the caller's Dataset, is the root of the output's
// lineage. A ring chain starts from a pooled coordinator-held Dataset and
// recycles it after round 0; worker 1 is then severed at the first frame
// of round 1, so the partitions it held of round 0's output must be made
// again. Round 0 re-runs over the placed copy — never over the recycled
// buffers, which the pool hands out again — and round 1 ends
// bit-identical to memory.
func TestDistLineageRecycledInputRecovers(t *testing.T) {
	ctx := context.Background()
	pool := NewBufferPool()
	in, _, err := RunDS(ctx, Config{Mappers: 4, Reducers: 4, Pool: pool},
		PartitionDataset(ringInput(), 4), ringMap, ringReduce)
	if err != nil {
		t.Fatal(err)
	}
	want := ringRounds(t, Config{Mappers: 4, Reducers: 4, Name: "ring-step"}, 3)
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
	next, st, err := RunDS(ctx, cfg, ds, ringMap, ringReduce)
	if err != nil {
		t.Fatalf("round 1 after its lineage's coordinator-held input was recycled: %v", err)
	}
	defer next.Recycle()
	ds.Recycle()
	if st.WorkerRecoveries < 1 || st.ReseededPartitions < 1 {
		t.Fatalf("round 1 retried %d times and reseeded %d partitions, want a recovery that recomputes round 0", st.WorkerRecoveries, st.ReseededPartitions)
	}
	if err := next.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got := next.Collect(); !reflect.DeepEqual(got, want) {
		t.Fatal("the recovered round diverges from memory")
	}
}

// TestDistLineageRecomputeBytesCounted: the wire bytes of a recovery's
// re-runs belong to the job that recovers. A ring chain of three rounds
// loses worker 1 at round 2's announce, so round 1's output is made
// again by re-running round 1 and, under it, round 0. Summed over the
// driver's trace, RemoteBytesIn and RemoteBytesOut must equal the
// cluster's transport totals (with heartbeats off, nothing moves between
// jobs); a re-run that advanced the counters' snapshot would leave its
// bytes out of every job.
func TestDistLineageRecomputeBytesCounted(t *testing.T) {
	ctx := context.Background()
	cl := startSchedCluster(t, 2, DistClusterOptions{Timeout: 30 * time.Second, HeartbeatEvery: -1}, nil)
	d := NewDriver(distCfg4(cl, ""))
	defer d.Release()
	ds := PartitionDataset(ringInput(), d.Partitions())
	held := []*Dataset[int32, int64]{ds}
	defer func() {
		for _, ds := range held {
			ds.Recycle()
		}
	}()
	for round := 0; round < 3; round++ {
		if round == 2 {
			if err := cl.InjectFault(1, &remote.Fault{Op: remote.FaultSever, AfterWrites: 1}); err != nil {
				t.Fatal(err)
			}
		}
		next, err := RunJobDS(ctx, d, "ring-step", ds, ringMap, ringReduce)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		held = append(held, next)
		ds = next
	}
	var sumIn, sumOut int64
	for _, st := range d.Trace() {
		sumIn += st.RemoteBytesIn
		sumOut += st.RemoteBytesOut
	}
	in0, out0 := cl.bytesInOut()
	last := d.Trace()[2]
	t.Logf("trace in=%d out=%d, transport in=%d out=%d; round 2: retries=%d reseeded=%d",
		sumIn, sumOut, in0, out0, last.WorkerRecoveries, last.ReseededPartitions)
	if last.WorkerRecoveries < 1 || last.ReseededPartitions < 1 {
		t.Fatalf("round 2 retried %d times and reseeded %d partitions, want a recovery that recomputes", last.WorkerRecoveries, last.ReseededPartitions)
	}
	if sumIn != in0 || sumOut != out0 {
		t.Fatalf("jobs account for %d bytes in and %d out, the transport moved %d and %d", sumIn, sumOut, in0, out0)
	}
}
