package mapreduce

import (
	"bufio"
	"bytes"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce/remote"
)

// The codec tests reach the codec through these helpers only, so a test
// that pins bytes (TestPairBlobGolden) does not change when the codec's
// entry points do.

// encodeTestPairs returns the pair blob for pairs.
func encodeTestPairs[K comparable, V any](t testing.TB, pairs []Pair[K, V], compress bool, saved *atomic.Int64) []byte {
	t.Helper()
	blob, err := encodePairs(nil, pairs, testCodec[K, V](t), compress, saved)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// decodeTestPairs decodes a blob declared to hold count pairs into a
// pairCap-sized slice, the way every frame reader does; hint is that
// capacity.
func decodeTestPairs[K comparable, V any](t testing.TB, blob []byte, count int) (out []Pair[K, V], hint int, err error) {
	t.Helper()
	pc := testCodec[K, V](t)
	cur := remote.NewCursor(blob)
	hint = pairCap(cur, count, pc)
	out, err = decodePairs(cur, count, pc, make([]Pair[K, V], 0, hint))
	if err == nil {
		err = cur.Err()
	}
	return out, hint, err
}

// testBlockCodec returns the spill run codec for (K, V).
func testBlockCodec[K comparable, V any](t testing.TB, compress bool, saved *atomic.Int64) *spillBlockCodec[K, V] {
	t.Helper()
	return &spillBlockCodec[K, V]{pc: testCodec[K, V](t), img: keyShapeOf[K]().image(), compress: compress, saved: saved}
}

func testCodec[K comparable, V any](t testing.TB) *pairCodec[K, V] {
	t.Helper()
	pc, err := pairCodecFor[K, V]()
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

// encodeTestRun writes recs as one spill run and returns the run file's
// bytes.
func encodeTestRun[K comparable, V any](t testing.TB, c *spillBlockCodec[K, V], recs []spillRec[K, V]) []byte {
	t.Helper()
	var run bytes.Buffer
	enc := c.NewRunEncoder()
	for _, r := range recs {
		if err := enc.Encode(&run, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(&run); err != nil {
		t.Fatal(err)
	}
	return run.Bytes()
}

// decodeTestRun reads a run file's bytes back to the io.EOF that ends
// it, or to the first error.
func decodeTestRun[K comparable, V any](c *spillBlockCodec[K, V], run []byte) ([]spillRec[K, V], error) {
	r := bufio.NewReader(bytes.NewReader(run))
	dec := c.NewRunDecoder()
	var recs []spillRec[K, V]
	for {
		rec, err := dec.Decode(r)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}
