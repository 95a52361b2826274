package mapreduce

import (
	"bytes"
	"testing"

	"repro/internal/mapreduce/remote"
)

// FuzzDecodePairs feeds decodePairs — the decoder behind every bulk
// frame a socket delivers (buckets, reduce output, checkpoint mirrors,
// seeds, fetched partitions) and every journaled blob — arbitrary bytes
// under an arbitrary declared pair count. The contract: an error, or
// exactly count pairs that survive a re-encode; never a panic, never
// partial output beside an error, and never more memory than the
// payload could back (pairCap for plain blobs, DEFLATE's expansion
// ceiling times that for compressed ones).
//
// kind selects the pair type, one per column lane family: int32 keys
// (delta varints) with int64 values, string keys (dictionary) with
// int32 values, [2]int32 keys (two delta sub-columns) with float64
// values (raw words). The checked-in corpus under
// testdata/fuzz/FuzzDecodePairs holds a plain and a flate blob of each
// plus the malformed shapes found by hand: truncation, an over-declared
// count, the retired 0x01 row marker, and a forged flate length.
func FuzzDecodePairs(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, count int, blob []byte) {
		switch kind % 3 {
		case 0:
			fuzzDecodePairs[int32, int64](t, count, blob)
		case 1:
			fuzzDecodePairs[string, int32](t, count, blob)
		case 2:
			fuzzDecodePairs[[2]int32, float64](t, count, blob)
		}
	})
}

func fuzzDecodePairs[K comparable, V any](t *testing.T, count int, blob []byte) {
	kc, err := resolveSpillCodec[K]()
	if err != nil {
		t.Fatal(err)
	}
	vc, err := resolveSpillCodec[V]()
	if err != nil {
		t.Fatal(err)
	}
	decode := func(blob []byte, count int) ([]Pair[K, V], int, error) {
		cur := remote.NewCursor(blob)
		hint := pairCap(cur, count, kc, vc)
		out, err := decodePairs(cur, count, kc, vc, make([]Pair[K, V], 0, hint))
		return out, hint, err
	}

	out, hint, err := decode(blob, count)
	if err != nil {
		if len(out) != 0 {
			t.Fatalf("decode failed (%v) but returned %d pairs", err, len(out))
		}
		return
	}
	if len(out) != count {
		t.Fatalf("decode returned %d pairs for a declared count of %d", len(out), count)
	}
	// The payload bounds the allocation: a plain blob decodes into the
	// pairCap-sized slice it was handed, and a compressed one cannot
	// declare more pairs than its inflated image could hold.
	if len(blob) > 0 && blob[0] == pairBlobV2 && cap(out) != hint {
		t.Fatalf("plain blob outgrew pairCap: cap %d, hint %d", cap(out), hint)
	}
	if ceiling := len(blob) * maxInflateRatio * 8 / (kc.min8 + vc.min8); count > ceiling {
		t.Fatalf("%d pairs decoded from a %d-byte blob (ceiling %d)", count, len(blob), ceiling)
	}

	// Exact round trip, compared on the canonical (plain) encoding so NaN
	// payloads and non-minimal input varints do not matter.
	canon, err := encodePairs(nil, out, kc, vc, false, nil)
	if err != nil {
		t.Fatalf("re-encoding decoded pairs: %v", err)
	}
	flate, err := encodePairs(nil, out, kc, vc, true, nil)
	if err != nil {
		t.Fatalf("re-encoding decoded pairs compressed: %v", err)
	}
	for _, enc := range [][]byte{canon, flate} {
		again, _, err := decode(enc, count)
		if err != nil {
			t.Fatalf("decoding our own encoding (marker 0x%02x): %v", enc[0], err)
		}
		back, err := encodePairs(nil, again, kc, vc, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, canon) {
			t.Fatalf("round trip changed the pairs (marker 0x%02x)", enc[0])
		}
	}
}
