package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Codec v2 property tests: every supported key/value lane must survive
// the encode/decode round trip bit-exactly.

// binPoint exercises the self-encoding column: its kind (a struct with
// fields) has no lane, and a named integer with these methods must keep
// them rather than being reinterpreted by kind.
type binPoint struct{ X, Y int32 }

func (p binPoint) AppendBinary(buf []byte) ([]byte, error) {
	return fmt.Appendf(buf, "%d,%d", p.X, p.Y), nil
}

func (p *binPoint) UnmarshalBinary(data []byte) error {
	_, err := fmt.Sscanf(string(data), "%d,%d", &p.X, &p.Y)
	return err
}

// f32 is a float32 that encodes itself as its 4 little-endian bytes.
type f32 float32

func (x f32) AppendBinary(buf []byte) ([]byte, error) {
	return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(x))), nil
}

func (x *f32) UnmarshalBinary(data []byte) error {
	if len(data) != 4 {
		return errSpillShort
	}
	*x = f32(math.Float32frombits(binary.LittleEndian.Uint32(data)))
	return nil
}

// roundTripPairs encodes pairs and requires the exact input back.
func roundTripPairs[K comparable, V any](t *testing.T, pairs []Pair[K, V]) {
	t.Helper()
	out, _, err := decodeTestPairs[K, V](t, encodeTestPairs(t, pairs), len(pairs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(pairs) {
		t.Fatalf("decode: %d pairs, want %d", len(out), len(pairs))
	}
	for i := range out {
		if !reflect.DeepEqual(out[i], pairs[i]) {
			t.Fatalf("decode: pair %d = %+v, want %+v", i, out[i], pairs[i])
		}
	}
}

func TestCodecV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))

	t.Run("int32-int64-sorted", func(t *testing.T) {
		pairs := make([]Pair[int32, int64], 500)
		for i := range pairs {
			pairs[i] = P(int32(i/4), rng.Int63()-rng.Int63())
		}
		roundTripPairs(t, pairs)
	})
	t.Run("int32-int32-random", func(t *testing.T) {
		pairs := make([]Pair[int32, int32], 300)
		for i := range pairs {
			pairs[i] = P(int32(rng.Uint32()), int32(rng.Uint32()))
		}
		roundTripPairs(t, pairs)
	})
	t.Run("named-int32-key", func(t *testing.T) {
		type nid int32
		pairs := make([]Pair[nid, int64], 200)
		for i := range pairs {
			pairs[i] = P(nid(rng.Int31()-rng.Int31()), int64(i))
		}
		roundTripPairs(t, pairs)
	})
	t.Run("uint64-uint32", func(t *testing.T) {
		pairs := make([]Pair[uint64, uint32], 200)
		for i := range pairs {
			pairs[i] = P(rng.Uint64(), rng.Uint32())
		}
		roundTripPairs(t, pairs)
	})
	t.Run("int-int", func(t *testing.T) {
		pairs := make([]Pair[int, int], 200)
		for i := range pairs {
			pairs[i] = P(rng.Int()-rng.Int(), rng.Int()-rng.Int())
		}
		roundTripPairs(t, pairs)
	})
	t.Run("float64-float64", func(t *testing.T) {
		pairs := make([]Pair[float64, float64], 200)
		for i := range pairs {
			pairs[i] = P(rng.NormFloat64(), rng.NormFloat64())
		}
		roundTripPairs(t, pairs)
	})
	t.Run("float32-generic-lane", func(t *testing.T) {
		// float32 has no lane: a float32 that is shuffled encodes itself.
		pairs := make([]Pair[f32, f32], 200)
		for i := range pairs {
			pairs[i] = P(f32(rng.NormFloat64()), f32(rng.NormFloat64()))
		}
		roundTripPairs(t, pairs)
	})
	t.Run("bool-key-and-value", func(t *testing.T) {
		pairs := make([]Pair[bool, bool], 77) // odd count: tail bits in the packed column
		for i := range pairs {
			pairs[i] = P(rng.Intn(2) == 0, rng.Intn(2) == 1)
		}
		roundTripPairs(t, pairs)
	})
	t.Run("string-keys-fmt-collisions", func(t *testing.T) {
		// Keys whose naive textual joins collide ("1 2"+"3" vs
		// "1"+"2 3"), plus empties, NULs, and heavy duplication to
		// drive the dictionary.
		base := []string{"1 2", "1", "2", "2 3", "1 2 3", "", "a\x00b", "a", "\x00b", "κλειδί"}
		pairs := make([]Pair[string, int64], 400)
		for i := range pairs {
			pairs[i] = P(base[rng.Intn(len(base))], int64(i))
		}
		roundTripPairs(t, pairs)
	})
	t.Run("string-values", func(t *testing.T) {
		pairs := make([]Pair[int32, string], 300)
		for i := range pairs {
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			pairs[i] = P(int32(i), string(b))
		}
		roundTripPairs(t, pairs)
	})
	t.Run("edge-keys-and-values", func(t *testing.T) {
		pairs := make([]Pair[[2]int32, [2]int32], 200)
		for i := range pairs {
			pairs[i] = P([2]int32{int32(i), rng.Int31()}, [2]int32{rng.Int31() - rng.Int31(), int32(i)})
		}
		roundTripPairs(t, pairs)
	})
	t.Run("empty-struct-values", func(t *testing.T) {
		pairs := make([]Pair[int32, struct{}], 150)
		for i := range pairs {
			pairs[i] = P(int32(rng.Uint32()), struct{}{})
		}
		roundTripPairs(t, pairs)
	})
	t.Run("marshaler-key", func(t *testing.T) {
		pairs := make([]Pair[binPoint, int32], 120)
		for i := range pairs {
			pairs[i] = P(binPoint{rng.Int31(), -rng.Int31()}, int32(i))
		}
		roundTripPairs(t, pairs)
	})
	t.Run("slice-values", func(t *testing.T) {
		pairs := make([]Pair[int32, int64s], 100)
		for i := range pairs {
			vs := make(int64s, rng.Intn(6))
			for j := range vs {
				vs[j] = rng.Int63() - rng.Int63()
			}
			pairs[i] = P(int32(i), vs)
		}
		roundTripPairs(t, pairs)
	})
	t.Run("empty-batch", func(t *testing.T) {
		roundTripPairs(t, []Pair[int32, int64]{})
	})
	t.Run("single-pair", func(t *testing.T) {
		roundTripPairs(t, []Pair[string, float64]{P("only", 3.25)})
	})
}

// TestCodecV2DictOverflow drives a string key column past the 64k
// dictionary cap: entries beyond it must be inlined, losslessly.
func TestCodecV2DictOverflow(t *testing.T) {
	n := dictMaxEntries + 5000
	pairs := make([]Pair[string, int32], 0, n+200)
	for i := 0; i < n; i++ {
		pairs = append(pairs, P(fmt.Sprintf("key-%07d", i), int32(i)))
	}
	// Repeats after the overflow point: early keys must still resolve
	// through the dictionary, late ones through the inline escape.
	for i := 0; i < 100; i++ {
		pairs = append(pairs, P(fmt.Sprintf("key-%07d", i*3), int32(i)))
		pairs = append(pairs, P(fmt.Sprintf("key-%07d", n-1-i), int32(i)))
	}
	roundTripPairs(t, pairs)
}

// TestDecodePairsRejectsWhatItDoesNotWrite: a marker this build never
// writes is an error — 0x01 was the row framing retired with codec v1,
// 0x03 the retired flate-compressed columns (here with a raw length of
// 1 GiB declared by 40 bytes, which once sized the inflate buffer).
func TestDecodePairsRejectsWhatItDoesNotWrite(t *testing.T) {
	forged := binary.AppendUvarint([]byte{pairBlobV2Flate}, 1<<30)
	forged = append(forged, make([]byte, 40)...)
	for name, blob := range map[string][]byte{
		"retired v1 rows": {0x01, 0x01, 0x02, 0x01, 0x04},
		"unknown marker":  {0x7f, 0x00},
		"forged raw len":  forged,
	} {
		out, _, err := decodeTestPairs[int32, int64](t, blob, 1)
		if err == nil || len(out) != 0 {
			t.Errorf("%s: decoded %d pairs, err = %v; want an error", name, len(out), err)
		}
	}
}

// TestSpillRunBytesShrink prices the v2 block format on the benchmark
// shuffle shape, through the spill shuffle's own run writer: at most
// spillBytesPerRecMax bytes on disk per spilled record.
func TestSpillRunBytesShrink(t *testing.T) {
	// Measured 3.01 B/record (58 613 bytes for the 19 456 records that
	// reach disk); the sequence column the split column replaced took
	// 4.01 on the same input, per-record framing 8.11.
	const spillBytesPerRecMax = 4.1
	const n, bucket = 20000, 256
	sp, err := newSpillShuffle[int32, int64](1, 1, ShuffleConfig{MemoryBudget: 1024, TempDir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for lo := 0; lo < n; lo += bucket {
		pairs := make([]Pair[int32, int64], 0, bucket)
		for i := lo; i < min(lo+bucket, n); i++ {
			pairs = append(pairs, P(int32((i*31)%4096), int64(i/16)))
		}
		if err := sp.AddBucket(0, 0, pairs); err != nil {
			t.Fatal(err)
		}
	}
	streams, err := sp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got, prev := 0, int32(-1)
	for {
		k, vs, ok, err := streams[0].Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if k <= prev {
			t.Fatalf("merge served key %d after %d", k, prev)
		}
		prev = k
		got += len(vs)
	}
	if got != n {
		t.Fatalf("merge returned %d records, want %d", got, n)
	}
	_, spilled, runs := sp.footprint()
	if runs == 0 {
		t.Fatal("workload fit in memory; the byte count needs spilled runs")
	}
	v2 := sp.parts[0].fileLen
	t.Logf("run bytes: v2=%d (%.2f B/record over %d spilled)", v2, float64(v2)/float64(spilled), spilled)
	if max := int64(spillBytesPerRecMax * float64(spilled)); v2 > max {
		t.Fatalf("v2 runs use %d bytes for %d records, more than %.1f B/record", v2, spilled, spillBytesPerRecMax)
	}
}

// plainRec has exported fields and no encoding methods: no lane, and
// it does not encode itself.
type plainRec struct {
	N int
	S string
}

// decodeOnly can decode itself but not encode itself, which is no codec
// at all.
type decodeOnly struct{ N int32 }

func (d *decodeOnly) UnmarshalBinary(data []byte) error {
	d.N = int32(len(data))
	return nil
}

// TestResolveRejectsUncodableType: a value type with no lane that does
// not encode itself is refused when the spill shuffle is built and when
// the dist job is started — with the type named, before a record moves
// — while the memory backend, which never serialises, runs it.
func TestResolveRejectsUncodableType(t *testing.T) {
	cl := startTestCluster(t, 1)
	for _, tc := range []struct {
		name string // the type as the refusal names it
		run  func(cfg Config) (int, error)
	}{
		{"mapreduce.plainRec", uncodableJob(func(v int32) plainRec { return plainRec{N: int(v), S: "s"} })},
		{"[]int32", uncodableJob(func(v int32) []int32 { return []int32{v} })},
		{"int8", uncodableJob(func(v int32) int8 { return int8(v) })},
		{"float32", uncodableJob(func(v int32) float32 { return float32(v) })},
		{"[3]int64", uncodableJob(func(v int32) [3]int64 { return [3]int64{int64(v)} })},
		{"mapreduce.decodeOnly", uncodableJob(func(v int32) decodeOnly { return decodeOnly{v} })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n, err := tc.run(Config{Mappers: 2, Reducers: 2}); err != nil || n != 2 {
				t.Fatalf("memory backend: %d pairs, err = %v; want the job to run", n, err)
			}
			for backend, cfg := range map[string]Config{"spill": spillCfg(1), "dist": distCfg(cl, "uncodable")} {
				_, err := tc.run(cfg)
				if err == nil || !strings.Contains(err.Error(), tc.name+" has no codec") ||
					!strings.Contains(err.Error(), "BinaryAppender") {
					t.Errorf("%s: err = %v; want a refusal naming %s and the fix", backend, err, tc.name)
				}
			}
		})
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("refusing a job broke the cluster: %v", err)
	}
}

// uncodableJob runs a two-key job whose map emits mk(v), a value of the
// type under test, and whose reduce counts them.
func uncodableJob[V any](mk func(int32) V) func(cfg Config) (int, error) {
	input := []Pair[int32, int32]{P(int32(1), int32(1)), P(int32(2), int32(2))}
	return func(cfg Config) (int, error) {
		out, _, err := Run(context.Background(), cfg, input,
			func(k, v int32, out Emitter[int32, V]) error {
				out.Emit(k, mk(v))
				return nil
			},
			func(k int32, vs []V, out Emitter[int32, int]) error {
				out.Emit(k, len(vs))
				return nil
			})
		return len(out), err
	}
}

// TestSpillRunRejectsMalformedBlocks: the hand-made shapes of the
// FuzzSpillRunDecode corpus, each of which must be an error — after the
// blocks that precede it, whole — and never records made of what is not
// there.
func TestSpillRunRejectsMalformedBlocks(t *testing.T) {
	frame := func(payload []byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
	}
	// block is one int32/int64 block declaring n records over the given
	// (possibly short) split, key and value columns.
	block := func(n uint64, cols ...[]int64) []byte {
		p := binary.AppendUvarint([]byte{pairBlobV2}, n)
		for _, col := range cols {
			var prev int64
			for _, x := range col {
				p = binary.AppendVarint(p, x-prev)
				prev = x
			}
		}
		return frame(p)
	}
	sp, ks, vs := []int64{0, 1, 3}, []int64{5, 5, 9}, []int64{100, 200, 300}
	good := block(3, sp, ks, vs)
	if run, err := decodeTestRun[int32, int64](t, good, 4); err != nil || run.len() != 3 {
		t.Fatalf("the well-formed block: %d records, err = %v", run.len(), err)
	}
	forgedLen := binary.AppendUvarint(binary.AppendUvarint([]byte{pairBlobV2Flate}, 3), 1<<30)
	for name, tc := range map[string]struct {
		run  []byte
		want int // records of the blocks before the bad one
	}{
		"count past the columns":   {block(200, sp, ks, vs), 0},
		"count past a block":       {block(spillBlockRecs+1, sp, ks, vs), 0},
		"count zero":               {block(0, sp, ks, vs), 0},
		"split past the job":       {block(3, []int64{0, 1, 4}, ks, vs), 0},
		"split negative":           {block(3, []int64{0, -1, 2}, ks, vs), 0},
		"split column cut":         {block(3, sp[:2]), 0},
		"key column cut":           {block(3, sp, ks[:1]), 0},
		"value column cut":         {block(3, sp, ks, vs[:2]), 0},
		"second frame cut":         {append(bytes.Clone(good), good[:len(good)-2]...), 3},
		"prefix cut":               {append(bytes.Clone(good), 0x80), 3},
		"flate, forged raw length": {frame(append(forgedLen, make([]byte, 40)...)), 0},
		"unknown marker":           {frame([]byte{0x7f, 0x03, 0x00}), 0},
	} {
		run, err := decodeTestRun[int32, int64](t, tc.run, 4)
		if err == nil || run.len() != tc.want {
			t.Errorf("%s: %d records, err = %v; want %d and an error", name, run.len(), err, tc.want)
		}
	}
}

// TestSpillRunForgedFrameLength: a run file's block length prefix is
// read before the block is, so it must not size an allocation. Six
// bytes declaring a 1 GiB frame are a truncated run, reported after
// allocating about one read chunk.
func TestSpillRunForgedFrameLength(t *testing.T) {
	run := append(binary.AppendUvarint(nil, 1<<30), pairBlobV2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, err := decodeTestRun[int32, int64](t, run, 1)
	runtime.ReadMemStats(&after)
	if err == nil || recs.len() != 0 {
		t.Fatalf("decoded %d records, err = %v; want a truncation error", recs.len(), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a %d-byte run allocated %d bytes before failing", len(run), grew)
	}
}
