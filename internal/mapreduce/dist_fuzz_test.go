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
// than the job has). Seeds: a two-partition report with pool deltas and
// side output on one, every truncation of it, the same report with a
// byte trailing, the same report as Proto 17 wrote it (no pool deltas),
// and a side count forged far past the payload.
func FuzzJobDone(f *testing.F) {
	good := appendJobDone(nil, 17, 40, 3*time.Millisecond, 1<<20, 3, []int{1, 3},
		[]int64{0, 25, 0, 15}, [][]uint64{nil, {7, 1 << 40, 0}, nil, nil})
	for cut := len(good); cut >= 0; cut-- {
		f.Add(4, good[:cut])
	}
	f.Add(4, append(slices.Clone(good), 9))
	head := appendJobDone(nil, 17, 40, 3*time.Millisecond, 1<<20, 3, nil, nil, nil)
	pre18 := remote.AppendUvarint(remote.AppendUvarint(remote.AppendUvarint(nil, 17), 40), uint64(3*time.Millisecond))
	f.Add(4, append(pre18, good[len(head)-1:]...))                        // the partition count onwards
	forged := remote.AppendUvarint([]byte{1, 1, 1, 0, 0, 1, 0, 5}, 1<<50) // one partition, 2^50 side values, no bytes
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
		enc := appendJobDone(nil, rep.groups, rep.outRecords, rep.reduceWall, rep.pooled, rep.misses, parts, counts, sides)
		if err := parseJobDone(remote.NewCursor(enc), reducers, &again); err != nil {
			t.Fatalf("parsing our own job-done: %v", err)
		}
		if !reflect.DeepEqual(again, rep) {
			t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", again, rep)
		}
	})
}

// FuzzJobHeader feeds parseJobHeader — the worker's decoder of the job
// announce (MsgJobStart) — arbitrary bytes. The contract: an error, or a
// header that survives a re-encode; never a panic, and never an owner
// table longer than the payload. Seeds: the headers of a flat input's
// job (hashed), a chained and a state job, each of which must round-trip
// exactly, every truncation of one, the same header as Proto 17 wrote it
// (with the retired mode byte and split count in front of the partition
// count), one with a flag bit no version sets, one whose owner table is
// longer than its partition count, and one with a byte trailing.
func FuzzJobHeader(f *testing.F) {
	headers := []*distJobHeader{
		{seq: 1, name: "eq-int32", reducers: 4, hashed: true, inputSeq: 1 << 20,
			owners: []int{0, 1, 0, 1}, k2id: "int32", v2id: "int64", k3id: "int32", v3id: "int64"},
		{seq: 7, name: "ring-step", reducers: 4, inputSeq: 6,
			owners: []int{0, 1, 1, 1}, k2id: "int32", v2id: "int64", k3id: "int32", v3id: "int64"},
		{seq: 1 << 40, name: "greedymr-round", reducers: 3, state: true,
			inputSeq: 1<<40 - 1, owners: []int{2, 0, 1}, k2id: "graph.NodeID", v2id: "int32",
			k3id: "graph.NodeID", v3id: "core.nodeState", params: []byte{1, 0, 255}},
	}
	for _, h := range headers {
		body := h.encode()[1:]
		got, err := parseJobHeader(remote.NewCursor(body))
		if err != nil || !reflect.DeepEqual(got, h) {
			f.Fatalf("header %+v does not round-trip: got %+v, %v", h, got, err)
		}
		f.Add(body)
	}
	body := headers[2].encode()[1:]
	for cut := len(body) - 1; cut >= 0; cut-- {
		f.Add(body[:cut])
	}
	h := headers[1]
	name := remote.AppendString(remote.AppendUvarint(nil, h.seq), h.name)
	f.Add(slices.Insert(h.encode()[1:], len(name), 1, 4)) // mode chained, 4 splits
	flags := len(remote.AppendUvarint(name, uint64(h.reducers)))
	unknown := h.encode()[1:]
	unknown[flags] |= 1 << 2
	f.Add(unknown)
	long := *h
	long.owners = append(slices.Clone(h.owners), 0)
	f.Add(long.encode()[1:])
	f.Add(append(h.encode()[1:], 0))
	f.Fuzz(func(t *testing.T, body []byte) {
		h, err := parseJobHeader(remote.NewCursor(body))
		if err != nil {
			return
		}
		if len(h.owners) > len(body) {
			t.Fatalf("%d owners from a %d-byte header", len(h.owners), len(body))
		}
		again, err := parseJobHeader(remote.NewCursor(h.encode()[1:]))
		if err != nil {
			t.Fatalf("parsing our own header: %v", err)
		}
		if !reflect.DeepEqual(again, h) {
			t.Fatalf("round trip changed the header:\n got %+v\nwant %+v", again, h)
		}
	})
}
