package mapreduce

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// goldenID is a named unsigned id, the shape of graph.NodeID's cousins:
// it reaches the 4-byte delta lane by kind.
type goldenID uint32

// TestPairBlobGolden pins the bytes codec v2 writes, one small batch per
// column lane. It also pins one two-block spill run whose string
// dictionary is carried from the first block into the second. A change
// that moves any of these bytes changes what a peer of the other build,
// a journal on disk, or a run file holds: it needs remote.Proto and
// journalFormat bumped, not this test edited.
func TestPairBlobGolden(t *testing.T) {
	goldenBlob(t, "int32-delta/int64",
		[]Pair[int32, int64]{P(int32(3), int64(100)), P(int32(3), int64(-1)), P(int32(7), int64(1)<<40), P(int32(-2), int64(0))},
		"0206000811c801c901828080808040ffffffffff3f")
	goldenBlob(t, "named-uint32/float64",
		[]Pair[goldenID, float64]{P(goldenID(1), 0.5), P(goldenID(4000000000), -2.0), P(goldenID(4000000001), 1e300)},
		"020281e0a6990202000000000000e03f00000000000000c09c7500883ce4377e")
	goldenBlob(t, "bool/string-dict",
		[]Pair[bool, string]{P(true, "ab"), P(false, ""), P(true, "ab"), P(true, "c"), P(false, "ab")},
		"020d030261620001630102010301")
	goldenBlob(t, "edge/empty-struct",
		[]Pair[[2]int32, struct{}]{P([2]int32{1, 9}, struct{}{}), P([2]int32{1, 12}, struct{}{}), P([2]int32{5, 2}, struct{}{})},
		"02020008120613")
	goldenBlob(t, "int32/binary-marshaler",
		[]Pair[int32, binPoint]{P(int32(10), binPoint{1, -1}), P(int32(11), binPoint{20, 300})},
		"02140204312c2d310632302c333030")

	t.Run("spill-run", func(t *testing.T) {
		// 600 records: spillBlockRecs (512) in the first block, 88 in
		// the second, which references dictionary entries only the first
		// block spelled out. Every record has a split of its own, so the
		// split column's deltas are the sequence deltas this run was
		// first pinned with: the column changed its meaning, not its
		// bytes.
		var run testRun[string, int32]
		for i := 0; i < 600; i++ {
			run.keys = append(run.keys, fmt.Sprintf("k%02d", i%37))
			run.vals = append(run.vals, int32(i*3))
			run.splits = append(run.splits, int32(i))
		}
		data := encodeTestRun(t, run)
		sum := sha256.Sum256(data)
		const wantLen, wantSum = 1961, "e241edb37376ce497f0c75b375285425975ae325d3ef93103cd762a1166e6770"
		if len(data) != wantLen || hex.EncodeToString(sum[:]) != wantSum {
			t.Errorf("run is %d bytes, sha256 %x; want %d bytes, %s", len(data), sum, wantLen, wantSum)
		}
		back, err := decodeTestRun[string, int32](t, data, run.len())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, run) {
			t.Fatal("golden run does not decode to its records")
		}
	})
}

func goldenBlob[K comparable, V any](t *testing.T, name string, pairs []Pair[K, V], wantHex string) {
	t.Run(name, func(t *testing.T) {
		blob := encodeTestPairs(t, pairs)
		if got := hex.EncodeToString(blob); got != wantHex || blob[0] != pairBlobV2 {
			t.Errorf("blob:\n got %s\nwant %s (marker 0x%02x)", got, wantHex, pairBlobV2)
		}
		want, err := hex.DecodeString(wantHex)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := decodeTestPairs[K, V](t, want, len(pairs))
		if err != nil {
			t.Fatalf("golden bytes: %v", err)
		}
		if !reflect.DeepEqual(back, pairs) {
			t.Errorf("golden bytes decode to %v, want %v", back, pairs)
		}
	})
}
