package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

func testCodec[K comparable, V any](t testing.TB) *pairCodec[K, V] {
	t.Helper()
	pc, err := pairCodecFor[K, V]()
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

// testRun is one spill run as parallel columns: sorted order is the
// writer's business, the codec takes them as they come.
type testRun[K comparable, V any] struct {
	keys   []K
	vals   []V
	splits []int32
}

func (r testRun[K, V]) len() int { return len(r.keys) }

// encodeTestRun writes run the way the spill shuffle's run writer does,
// block by block, and returns the run's bytes.
func encodeTestRun[K comparable, V any](t testing.TB, run testRun[K, V], compress bool, saved *atomic.Int64) []byte {
	t.Helper()
	pc := testCodec[K, V](t)
	enc := pc.getRunEnc()
	defer pc.putRunEnc(enc)
	for lo := 0; lo < run.len(); lo += spillBlockRecs {
		hi := min(lo+spillBlockRecs, run.len())
		if err := enc.appendBlock(pc, run.keys[lo:hi], run.vals[lo:hi], run.splits[lo:hi], compress, saved); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Clone(enc.out)
}

// decodeTestRun reads a run's bytes back, for a job of nsplits map
// splits, to the io.EOF that ends it or to the first error.
func decodeTestRun[K comparable, V any](t testing.TB, data []byte, nsplits int) (testRun[K, V], error) {
	t.Helper()
	pc := testCodec[K, V](t)
	dec := pc.getRunDec(bytes.NewReader(data), 0, int64(len(data)))
	defer pc.putRunDec(dec)
	img := keyShapeOf[K]().image()
	keys, vals := make([]K, spillBlockRecs), make([]V, spillBlockRecs)
	splits, imgs := make([]int32, spillBlockRecs), make([]uint64, spillBlockRecs)
	var run testRun[K, V]
	for {
		n, err := dec.readBlock(pc, img, nsplits, keys, vals, splits, imgs)
		if err == io.EOF {
			return run, nil
		}
		if err != nil {
			return run, err
		}
		for i, k := range keys[:n] {
			if imgs[i] != img(k) {
				t.Fatalf("block returned a stale key image for %v", k)
			}
		}
		run.keys = append(run.keys, keys[:n]...)
		run.vals = append(run.vals, vals[:n]...)
		run.splits = append(run.splits, splits[:n]...)
	}
}

// int64s is the tests' slice value: the codec has no lane for a slice,
// so a test that shuffles one off the memory backend shuffles this type,
// which encodes itself as a uvarint count and then zig-zag varints.
type int64s []int64

func (s int64s) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	for _, x := range s {
		buf = binary.AppendVarint(buf, x)
	}
	return buf, nil
}

func (s *int64s) UnmarshalBinary(data []byte) error {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return errSpillShort
	}
	data = data[k:]
	out := make(int64s, n)
	for i := range out {
		x, k := binary.Varint(data)
		if k <= 0 {
			return errSpillShort
		}
		out[i], data = x, data[k:]
	}
	if len(data) != 0 {
		return fmt.Errorf("int64s: %d trailing bytes", len(data))
	}
	*s = out
	return nil
}
