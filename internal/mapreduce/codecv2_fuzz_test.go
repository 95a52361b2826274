package mapreduce

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzDecodePairs feeds decodePairs — the decoder behind every bulk
// frame a socket delivers (buckets, reduce output, seeds, fetched
// partitions) — arbitrary bytes under an arbitrary
// declared pair count. The contract: an error, or
// exactly count pairs that survive a re-encode; never a panic, never
// partial output beside an error, and never more memory than the
// payload could back (pairCap).
//
// kind selects the pair type, one per column lane family: int32 keys
// (delta varints) with int64 values, string keys (dictionary) with
// int32 values, [2]int32 keys (two delta sub-columns) with float64
// values (raw words), bool keys (bit-packed) with a self-encoding struct
// value, int32 keys with a self-encoding slice value (both in the
// self-encoding column). The checked-in corpus under testdata/fuzz/FuzzDecodePairs
// holds a plain blob of each plus the malformed shapes found by hand:
// truncation, an over-declared count, the retired 0x01 row marker, and
// blobs behind the retired 0x03 flate marker, which must be refused.
func FuzzDecodePairs(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, count int, blob []byte) {
		switch kind % 5 {
		case 0:
			fuzzDecodePairs[int32, int64](t, count, blob)
		case 1:
			fuzzDecodePairs[string, int32](t, count, blob)
		case 2:
			fuzzDecodePairs[[2]int32, float64](t, count, blob)
		case 3:
			fuzzDecodePairs[bool, binPoint](t, count, blob)
		case 4:
			fuzzDecodePairs[int32, int64s](t, count, blob)
		}
	})
}

func fuzzDecodePairs[K comparable, V any](t *testing.T, count int, blob []byte) {
	out, hint, err := decodeTestPairs[K, V](t, blob, count)
	if err != nil {
		if len(out) != 0 {
			t.Fatalf("decode failed (%v) but returned %d pairs", err, len(out))
		}
		return
	}
	if len(out) != count {
		t.Fatalf("decode returned %d pairs for a declared count of %d", len(out), count)
	}
	// The payload bounds the allocation: a blob decodes into the
	// pairCap-sized slice it was handed, and cannot declare more pairs
	// than its columns could hold.
	if cap(out) != hint {
		t.Fatalf("blob outgrew pairCap: cap %d, hint %d", cap(out), hint)
	}
	if ceiling := len(blob) * 8 / testCodec[K, V](t).min8; count > ceiling {
		t.Fatalf("%d pairs decoded from a %d-byte blob (ceiling %d)", count, len(blob), ceiling)
	}

	// Exact round trip, compared on the canonical encoding so NaN
	// payloads and non-minimal input varints do not matter.
	canon := encodeTestPairs(t, out)
	again, _, err := decodeTestPairs[K, V](t, canon, count)
	if err != nil {
		t.Fatalf("decoding our own encoding: %v", err)
	}
	if back := encodeTestPairs(t, again); !bytes.Equal(back, canon) {
		t.Fatal("round trip changed the pairs")
	}
}

// fuzzRunSplits is the number of map splits FuzzSpillRunDecode's
// imaginary job has: a decoded split id at or past it is corruption.
const fuzzRunSplits = 4

// fuzzSeedRun is the run behind FuzzSpillRunDecode's seeds: the records
// TestPairBlobGolden pins (600 of them, so two blocks, the second
// leaning on the first one's dictionary), with splits a job of
// fuzzRunSplits could have produced.
func fuzzSeedRun() testRun[string, int32] {
	var run testRun[string, int32]
	for i := 0; i < 600; i++ {
		run.keys = append(run.keys, fmt.Sprintf("k%02d", i%37))
		run.vals = append(run.vals, int32(i*3))
		run.splits = append(run.splits, int32(i%fuzzRunSplits))
	}
	return run
}

// FuzzSpillRunDecode feeds the spill run decoder — what the merge reads
// a partition's runs through — arbitrary bytes as one run. The contract:
// blocks up to the io.EOF of a clean block boundary, or an error; never
// a panic, never more records than the bytes could hold, never a split
// the job does not have, and a run that decodes cleanly survives a
// re-encode. kind selects string-keyed records (per-run dictionary) or
// int32-keyed ones. Seeds: the golden records as a string-keyed run and
// the same records int32-keyed, and truncations of both; the checked-in
// corpus under testdata/fuzz/FuzzSpillRunDecode adds the malformed shapes
// found by hand: a forged record count, a split id past the job's
// splits, a split, key or value column cut short inside an intact frame,
// and blocks behind the retired 0x03 flate marker, which must be
// refused.
func FuzzSpillRunDecode(f *testing.F) {
	cuts := func(kind uint8, run []byte) {
		for _, cut := range []int{len(run), len(run) - 1, len(run) / 2, 40, 3, 1} {
			f.Add(kind, run[:cut])
		}
	}
	seed := fuzzSeedRun()
	cuts(0, encodeTestRun(f, seed))
	var ints testRun[int32, int64]
	for i, v := range seed.vals {
		ints.keys = append(ints.keys, int32(i%37))
		ints.vals = append(ints.vals, int64(v))
	}
	ints.splits = seed.splits
	cuts(1, encodeTestRun(f, ints))
	f.Add(uint8(1), []byte{0x05, 0x02, 0x01, 0x02, 0x06, 0x08}) // one (split 1, key 3, value 4) record
	f.Fuzz(func(t *testing.T, kind uint8, run []byte) {
		if kind%2 == 0 {
			fuzzSpillRun[string, int32](t, run)
		} else {
			fuzzSpillRun[int32, int64](t, run)
		}
	})
}

func fuzzSpillRun[K comparable, V any](t *testing.T, data []byte) {
	run, err := decodeTestRun[K, V](t, data, fuzzRunSplits)
	// Every block costs at least a length byte, a marker and a count,
	// and every record at least a split byte plus the pair's minimum
	// width.
	if blocks := len(data) / 3; run.len() > blocks*spillBlockRecs {
		t.Fatalf("%d records from a %d-byte run (at most %d blocks)", run.len(), len(data), blocks)
	}
	if ceiling := len(data) * 8 / (8 + testCodec[K, V](t).min8); run.len() > ceiling {
		t.Fatalf("%d records from a %d-byte run (ceiling %d)", run.len(), len(data), ceiling)
	}
	for _, s := range run.splits {
		if s < 0 || s >= fuzzRunSplits {
			t.Fatalf("decoded split %d of a %d-split job", s, fuzzRunSplits)
		}
	}
	if err != nil {
		return
	}
	again, err := decodeTestRun[K, V](t, encodeTestRun(t, run), fuzzRunSplits)
	if err != nil {
		t.Fatalf("decoding our own run: %v", err)
	}
	if !reflect.DeepEqual(again, run) {
		t.Fatal("round trip changed the records")
	}
}
