package mapreduce

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/mapreduce/remote"
)

// FuzzJobDone feeds parseJobDone — the decoder of the frame a worker
// closes its side of a job with, side output included — arbitrary bytes
// under an arbitrary partition count. The contract: an error, or a
// report that survives a re-encode; never a panic, and never an
// allocation a declared count sized (a side section cannot hold more
// values than the payload has bytes left, a report no more partitions
// than the job has). Seeds: a two-partition report with side output on
// one, every truncation of it, the same report as Proto 14 wrote it
// (with the retired wire-compression tally trailing), and a side count
// forged far past the payload.
func FuzzJobDone(f *testing.F) {
	good := appendJobDone(nil, 17, 40, 3*time.Millisecond, []int{1, 3},
		[]int64{0, 25, 0, 15}, [][]uint64{nil, {7, 1 << 40, 0}, nil, nil})
	for cut := len(good); cut >= 0; cut-- {
		f.Add(4, good[:cut])
	}
	f.Add(4, append(slices.Clone(good), 9))
	forged := remote.AppendUvarint([]byte{1, 1, 1, 1, 0, 5}, 1<<50) // one partition, 2^50 side values, no bytes
	f.Add(4, forged)
	f.Add(1, good) // names partitions the job does not have
	f.Fuzz(func(t *testing.T, reducers int, body []byte) {
		if reducers < 0 || reducers > 1<<16 {
			return
		}
		var rep distWorkerReport
		if err := parseJobDone(remote.NewCursor(body), reducers, &rep); err != nil {
			return
		}
		total := 0
		for _, side := range rep.sides {
			total += len(side)
		}
		if len(rep.counts) > reducers || len(rep.counts) > len(body) || total > len(body) {
			t.Fatalf("%d partitions and %d side values from a %d-byte report of a %d-partition job",
				len(rep.counts), total, len(body), reducers)
		}
		var parts []int
		counts, sides := make([]int64, reducers), make([][]uint64, reducers)
		for p := 0; p < reducers; p++ {
			if n, ok := rep.counts[p]; ok {
				parts = append(parts, p)
				counts[p], sides[p] = n, rep.sides[p]
			}
		}
		again := distWorkerReport{}
		enc := appendJobDone(nil, rep.groups, rep.outRecords, rep.reduceWall, parts, counts, sides)
		if err := parseJobDone(remote.NewCursor(enc), reducers, &again); err != nil {
			t.Fatalf("parsing our own job-done: %v", err)
		}
		if !reflect.DeepEqual(again, rep) {
			t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", again, rep)
		}
	})
}
