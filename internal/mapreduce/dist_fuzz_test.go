package mapreduce

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/mapreduce/remote"
)

// FuzzJobDone feeds parseJobDone — the decoder of the frame a worker
// closes its side of a job with, its executor Stats and side output
// included — arbitrary bytes under an arbitrary partition count, the
// partitions dealt round-robin over two workers and the report worker
// 0's. The contract: an error, or a report of worker 0's partitions
// that survives a re-encode; never a panic, and never an allocation a
// declared count sized (a side section cannot hold more values than the
// payload has bytes left, a report no more partitions than the job has).
// Seeds: a two-partition report with every Stats field it carries set
// and side output on one partition, every truncation of it, the same
// report with a byte trailing, the same report as Proto 19 wrote it
// (reduce statistics and pool deltas only), a side count forged far past
// the payload, a report naming worker 1's partition, and one naming
// partitions the job does not have.
func FuzzJobDone(f *testing.F) {
	st := Stats{MapOutputRecords: 41, LocalRouted: 29, CrossRouted: 12, ReduceGroups: 17,
		ReduceOutputRecords: 40, PooledBytes: 1 << 20, PoolMisses: 3, MapWall: 5 * time.Millisecond,
		ReduceWall: 3 * time.Millisecond}
	good := appendJobDone(nil, &distWorkerReport{stats: st,
		parts: map[int]partReport{0: {25, []uint64{7, 1 << 40, 0}}, 2: {count: 15}}})
	var rep distWorkerReport
	if err := parseJobDone(remote.NewCursor(good), []int{0, 1, 0, 1}, 0, &rep); err != nil || rep.stats != st {
		f.Fatalf("the good report does not round-trip: %+v, %v", rep.stats, err)
	}
	for cut := len(good); cut >= 0; cut-- {
		f.Add(4, good[:cut])
	}
	f.Add(4, append(slices.Clone(good), 9))
	head := appendJobDone(nil, &distWorkerReport{stats: st})
	var pre20 []byte
	for _, v := range []uint64{17, 40, uint64(3 * time.Millisecond), 1 << 20, 3} {
		pre20 = remote.AppendUvarint(pre20, v)
	}
	f.Add(4, append(pre20, good[len(head)-1:]...)) // the partition count onwards
	forged := appendJobDone(nil, &distWorkerReport{})
	forged = remote.AppendUvarint(append(forged[:len(forged)-1], 1, 0, 0), 1<<50) // partition 0: 2^50 side values, no bytes
	f.Add(4, forged)
	f.Add(4, appendJobDone(nil, &distWorkerReport{stats: st, parts: map[int]partReport{0: {count: 25}, 1: {count: 5}}}))
	f.Add(1, good)
	f.Fuzz(func(t *testing.T, reducers int, body []byte) {
		if reducers < 0 || reducers > 1<<16 {
			return
		}
		owners := make([]int, reducers)
		for p := range owners {
			owners[p] = remote.Owner(p, 2)
		}
		var rep distWorkerReport
		if err := parseJobDone(remote.NewCursor(body), owners, 0, &rep); err != nil {
			return
		}
		total := 0
		for p, r := range rep.parts {
			total += len(r.side)
			if owners[p] != 0 {
				t.Fatalf("accepted worker %d's partition %d from worker 0", owners[p], p)
			}
		}
		if len(rep.parts) > reducers || len(rep.parts) > len(body) || total > len(body) {
			t.Fatalf("%d partitions and %d side values from a %d-byte report of a %d-partition job",
				len(rep.parts), total, len(body), reducers)
		}
		var again distWorkerReport
		if err := parseJobDone(remote.NewCursor(appendJobDone(nil, &rep)), owners, 0, &again); err != nil {
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
