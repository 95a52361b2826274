package mapreduce

import (
	"path/filepath"
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

// FuzzJournalLoad feeds the two decoders -dist-resume trusts a journal
// directory to — the manifest and a segment file — arbitrary bytes. The
// contract: the manifest is refused or names only files of the
// directory; the segment yields no committed history or records that
// survive a re-encode; never a panic, never an allocation sized by a
// count the record's bytes cannot back. Seeds: a manifest and a segment
// as a run writes them (a record with side output, a record without,
// commits), truncations of the segment, a forged partition count, a
// forged side count, a frame with an empty body and the previous
// generation's manifest tag.
func FuzzJournalLoad(f *testing.F) {
	manifest := []byte("journal-000001.log " + journalFormat + "\njournal-000002.log " + journalFormat + "\n")
	commit := func(round uint64) []byte {
		return journalFrame(remote.AppendUvarint([]byte{journalRecCommit}, round))
	}
	sided := &journalRecord{seq: 3, name: "greedymr-round",
		counts: []int64{2, 0}, blobs: [][]byte{{pairBlobV2, 1, 2, 3}, {pairBlobV2}}, sides: [][]uint64{{5, 900}, nil}}
	plain := &journalRecord{seq: 4, name: "mm-cleanup",
		counts: []int64{1}, blobs: [][]byte{{pairBlobV2, 9}}}
	seg := journalFrame(encodeJournalJob(sided))
	seg = append(seg, commit(1)...)
	seg = append(seg, journalFrame(encodeJournalJob(plain))...)
	seg = append(seg, commit(2)...)
	for _, cut := range []int{len(seg), len(seg) - 1, len(seg) - 6, len(seg) / 2, 9, 1, 0} {
		f.Add(manifest, seg[:cut])
	}
	forge := func(tail ...byte) []byte { // seq 1, name "x", then tail
		return append(journalFrame(append([]byte{journalRecJob, 1, 1, 'x'}, tail...)), commit(1)...)
	}
	f.Add(manifest, forge(0xff, 0xff, 0xff, 0xff, 0x7f))          // 2^35 partitions in no bytes
	f.Add(manifest, forge(1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f)) // one partition, 2^35 side values
	f.Add(manifest, []byte{4, 0, 0, 0, 0})                        // a frame whose body is empty, CRC valid
	f.Add([]byte("journal-000001.log v6\n"), seg)                 // the previous generation's tag
	f.Add([]byte("../journal-000001.log "+journalFormat+"\n"), seg)
	f.Fuzz(func(t *testing.T, manifest, seg []byte) {
		if names, err := parseJournalManifest(manifest, "dir"); err == nil {
			for _, name := range names {
				if name == "" || name != filepath.Base(name) {
					t.Fatalf("manifest accepted segment name %q", name)
				}
			}
		}
		recs, round, ok := parseJournalSegment(seg)
		if !ok {
			if recs != nil {
				t.Fatalf("no committed history, yet %d records", len(recs))
			}
			return
		}
		var enc []byte
		for _, rec := range recs {
			size := 0
			for p := range rec.counts {
				size += 3 + len(rec.blobs[p])
				if rec.sides != nil {
					size += len(rec.sides[p])
				}
			}
			if size > len(seg) {
				t.Fatalf("a record of at least %d bytes from a %d-byte segment", size, len(seg))
			}
			enc = append(enc, journalFrame(encodeJournalJob(rec))...)
		}
		enc = append(enc, commit(uint64(round))...)
		again, round2, ok := parseJournalSegment(enc)
		if !ok || round2 != round || len(again) != len(recs) {
			t.Fatalf("parsing our own segment: ok=%v round %d (want %d), %d records (want %d)", ok, round2, round, len(again), len(recs))
		}
		for i := range recs {
			if !journalRecordsEqual(again[i], recs[i]) {
				t.Fatalf("round trip changed record %d:\n got %+v\nwant %+v", i, again[i], recs[i])
			}
		}
	})
}

// journalRecordsEqual compares what a record means: nil and empty blobs
// or side sections are the same thing on disk.
func journalRecordsEqual(a, b *journalRecord) bool {
	if a.seq != b.seq || a.name != b.name || !reflect.DeepEqual(a.counts, b.counts) {
		return false
	}
	for p := range a.counts {
		if string(a.blobs[p]) != string(b.blobs[p]) {
			return false
		}
		var sa, sb []uint64
		if a.sides != nil {
			sa = a.sides[p]
		}
		if b.sides != nil {
			sb = b.sides[p]
		}
		if len(sa) != len(sb) || (len(sa) > 0 && !reflect.DeepEqual(sa, sb)) {
			return false
		}
	}
	return true
}
