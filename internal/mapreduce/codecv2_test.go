package mapreduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/extsort"
	"repro/internal/mapreduce/remote"
)

// Codec v2 property tests: every supported key/value lane must survive
// the encode/decode round trip bit-exactly, uncompressed and behind
// block compression.

// binPoint exercises the BinaryMarshaler bypass: its kind (a struct
// with fields) would be rejected by the column lanes, and a named
// integer with these methods must keep them rather than being
// reinterpreted by kind.
type binPoint struct{ X, Y int32 }

func (p binPoint) MarshalBinary() ([]byte, error) {
	return fmt.Appendf(nil, "%d,%d", p.X, p.Y), nil
}

func (p *binPoint) UnmarshalBinary(data []byte) error {
	_, err := fmt.Sscanf(string(data), "%d,%d", &p.X, &p.Y)
	return err
}

// gobRec falls through every fast lane to the gob codec, which since
// codec v2 runs one persistent en/decoder per column stream.
type gobRec struct {
	Name string
	N    int64
}

// roundTripPairs encodes pairs uncompressed and compressed and requires
// the exact input back each way.
func roundTripPairs[K comparable, V any](t *testing.T, pairs []Pair[K, V]) {
	t.Helper()
	kc, err := resolveSpillCodec[K]()
	if err != nil {
		t.Fatal(err)
	}
	vc, err := resolveSpillCodec[V]()
	if err != nil {
		t.Fatal(err)
	}
	check := func(blob []byte, mode string) {
		t.Helper()
		cur := remote.NewCursor(blob)
		out, err := decodePairs(cur, len(pairs), kc, vc,
			make([]Pair[K, V], 0, pairCap(cur, len(pairs), kc, vc)))
		if err != nil {
			t.Fatalf("%s decode: %v", mode, err)
		}
		if len(out) != len(pairs) {
			t.Fatalf("%s decode: %d pairs, want %d", mode, len(out), len(pairs))
		}
		for i := range out {
			if !reflect.DeepEqual(out[i], pairs[i]) {
				t.Fatalf("%s decode: pair %d = %+v, want %+v", mode, i, out[i], pairs[i])
			}
		}
	}
	blob, err := encodePairs(nil, pairs, kc, vc, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(blob, "v2")

	var saved atomic.Int64
	cblob, err := encodePairs(nil, pairs, kc, vc, true, &saved)
	if err != nil {
		t.Fatal(err)
	}
	check(cblob, "v2-compressed")
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
		pairs := make([]Pair[float32, float32], 200)
		for i := range pairs {
			pairs[i] = P(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
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
	t.Run("gob-values", func(t *testing.T) {
		pairs := make([]Pair[int32, gobRec], 120)
		for i := range pairs {
			pairs[i] = P(int32(i), gobRec{Name: fmt.Sprintf("rec-%d", rng.Intn(30)), N: rng.Int63()})
		}
		roundTripPairs(t, pairs)
	})
	t.Run("slice-values", func(t *testing.T) {
		pairs := make([]Pair[int32, []int32], 100)
		for i := range pairs {
			vs := make([]int32, 1+rng.Intn(6))
			for j := range vs {
				vs[j] = rng.Int31() - rng.Int31()
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

// TestCodecV2CompressionMarkers pins the compression dispatch: a
// compressible batch ships deflated with the savings counted, an
// incompressible one falls back to plain columns, and a tiny one never
// pays for a flate header.
func TestCodecV2CompressionMarkers(t *testing.T) {
	kc, _ := resolveSpillCodec[int32]()
	vc, err := resolveSpillCodec[string]()
	if err != nil {
		t.Fatal(err)
	}

	compressible := make([]Pair[int32, string], 500)
	for i := range compressible {
		compressible[i] = P(int32(i), "the same highly repetitive value text")
	}
	var saved atomic.Int64
	blob, err := encodePairs(nil, compressible, kc, vc, true, &saved)
	if err != nil {
		t.Fatal(err)
	}
	if blob[0] != pairBlobV2Flate {
		t.Fatalf("compressible batch shipped with marker 0x%02x, want flate", blob[0])
	}
	plain, _ := encodePairs(nil, compressible, kc, vc, false, nil)
	if len(blob) >= len(plain) {
		t.Fatalf("compressed blob (%dB) not smaller than plain (%dB)", len(blob), len(plain))
	}
	if saved.Load() <= 0 {
		t.Fatal("compression saved no bytes by its own accounting")
	}

	rng := rand.New(rand.NewSource(99))
	incompressible := make([]Pair[int32, string], 300)
	for i := range incompressible {
		b := make([]byte, 24)
		rng.Read(b)
		incompressible[i] = P(int32(rng.Uint32()), string(b))
	}
	saved.Store(0)
	blob, err = encodePairs(nil, incompressible, kc, vc, true, &saved)
	if err != nil {
		t.Fatal(err)
	}
	if blob[0] != pairBlobV2 {
		t.Fatalf("incompressible batch shipped with marker 0x%02x, want plain v2", blob[0])
	}
	if saved.Load() != 0 {
		t.Fatalf("incompressible batch claims %d saved bytes", saved.Load())
	}

	tiny := []Pair[int32, string]{P(int32(1), "x")}
	blob, err = encodePairs(nil, tiny, kc, vc, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blob[0] != pairBlobV2 {
		t.Fatalf("tiny batch shipped with marker 0x%02x, want plain v2", blob[0])
	}
}

// TestDecodePairsRejectsWhatItDoesNotWrite: a marker this build never
// writes — 0x01 was the row framing retired with codec v1 — is an error,
// and so is a flate blob whose declared raw length no deflate stream of
// its size could produce (the length would otherwise size the inflate
// buffer: 1 GiB here, from 40 bytes).
func TestDecodePairsRejectsWhatItDoesNotWrite(t *testing.T) {
	kc, _ := resolveSpillCodec[int32]()
	vc, _ := resolveSpillCodec[int64]()
	forged := binary.AppendUvarint([]byte{pairBlobV2Flate}, 1<<30)
	forged = append(forged, make([]byte, 40)...)
	for name, blob := range map[string][]byte{
		"retired v1 rows": {0x01, 0x01, 0x02, 0x01, 0x04},
		"unknown marker":  {0x7f, 0x00},
		"forged raw len":  forged,
	} {
		out, err := decodePairs(remote.NewCursor(blob), 1, kc, vc, nil)
		if err == nil || len(out) != 0 {
			t.Errorf("%s: decoded %d pairs, err = %v; want an error", name, len(out), err)
		}
	}
}

// TestSpillRunBytesShrink prices the v2 block format on the benchmark
// shuffle shape: at most spillBytesPerRecMax bytes on disk per record —
// and fewer still with block compression, with the savings counter
// agreeing.
func TestSpillRunBytesShrink(t *testing.T) {
	// Measured 4.01 B/record (80 280 bytes for these 20 000 records); the
	// per-record framing codec v2 replaced took 8.11 on the same input.
	const spillBytesPerRecMax = 4.1
	kc, _ := resolveSpillCodec[int32]()
	vc, _ := resolveSpillCodec[int64]()
	imgFn := keyShapeOf[int32]().image()
	recs := make([]spillRec[int32, int64], 20000)
	for i := range recs {
		key := int32((i * 31) % 4096)
		recs[i] = spillRec[int32, int64]{seq: uint64(i), img: imgFn(key), key: key, val: int64(i / 16)}
	}
	less := func(a, b spillRec[int32, int64]) bool {
		if a.img != b.img {
			return a.img < b.img
		}
		return a.seq < b.seq
	}
	runThrough := func(codec extsort.Codec[spillRec[int32, int64]]) int64 {
		t.Helper()
		s := extsort.New(less, codec, extsort.Config{MaxInMemory: 1024, TempDir: t.TempDir()})
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			rec, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if rec.img != imgFn(rec.key) {
				t.Fatal("merge returned a record with a stale key image")
			}
			n++
		}
		it.Close()
		if n != len(recs) {
			t.Fatalf("merge returned %d records, want %d", n, len(recs))
		}
		if s.Runs() == 0 {
			t.Fatal("workload fit in memory; the byte comparison needs spilled runs")
		}
		return s.RunBytes()
	}

	v2 := runThrough(&spillBlockCodec[int32, int64]{key: kc, val: vc, img: imgFn})
	var saved atomic.Int64
	v2c := runThrough(&spillBlockCodec[int32, int64]{key: kc, val: vc, img: imgFn, compress: true, saved: &saved})
	t.Logf("run bytes: v2=%d (%.2f B/record) v2+flate=%d (saved counter %d)",
		v2, float64(v2)/float64(len(recs)), v2c, saved.Load())
	if max := int64(spillBytesPerRecMax * float64(len(recs))); v2 > max {
		t.Fatalf("v2 runs use %d bytes for %d records, more than %.1f B/record", v2, len(recs), spillBytesPerRecMax)
	}
	if v2c >= v2 {
		t.Fatalf("compressed runs (%dB) not smaller than plain v2 (%dB)", v2c, v2)
	}
	// The counter tracks payload bytes; the on-disk shrink also moves
	// the frame-length varints, so the two agree only approximately.
	if shrink := v2 - v2c; saved.Load() <= 0 ||
		shrink-saved.Load() > shrink/100 || saved.Load()-shrink > shrink/100 {
		t.Fatalf("savings counter says %d bytes avoided; run bytes shrank by %d", saved.Load(), shrink)
	}
}

// TestGobStreamCodecRoundTrip pins the per-stream gob path: one
// persistent encoder's records decode in order through one persistent
// decoder (type descriptors are sent once).
func TestGobStreamCodecRoundTrip(t *testing.T) {
	c, err := resolveSpillCodec[gobRec]()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]gobRec, 50)
	for i := range want {
		want[i] = gobRec{Name: fmt.Sprintf("n%d", i), N: int64(i * i)}
	}
	enc := c.forStream()
	var blobs [][]byte
	for _, r := range want {
		b, err := enc.enc(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	// Records after the first must not repeat the type descriptor.
	if len(blobs[1]) >= len(blobs[0]) {
		t.Fatalf("stream record 1 (%dB) not smaller than record 0 (%dB); descriptor resent?", len(blobs[1]), len(blobs[0]))
	}
	dec := c.forStream()
	for i, b := range blobs {
		got, err := dec.dec(b)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestDistWireCompressionEquivalence runs the reference job over the
// dist backend with wire compression on: output identical to the memory
// backend, measurably fewer bytes on the wire, and the savings counter
// lit.
func TestDistWireCompressionEquivalence(t *testing.T) {
	cl := startTestCluster(t, 2)
	input := int32Input()

	want, _, err := Run(context.Background(),
		Config{Mappers: 4, Reducers: 4, Name: "eq-int32"},
		input, int32Map, int32Reduce)
	if err != nil {
		t.Fatal(err)
	}

	plainCfg := distCfg4(cl, "eq-int32")
	_, plainStats, err := Run(context.Background(), plainCfg, input, int32Map, int32Reduce)
	if err != nil {
		t.Fatal(err)
	}
	if plainStats.WireBytesSaved != 0 {
		t.Fatalf("uncompressed run reports %d wire bytes saved", plainStats.WireBytesSaved)
	}

	compCfg := distCfg4(cl, "eq-int32")
	compCfg.WireCompression = true
	got, compStats, err := Run(context.Background(), compCfg, input, int32Map, int32Reduce)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compressed dist output diverges from the memory backend")
	}
	if compStats.WireBytesSaved <= 0 {
		t.Fatal("compressed run saved no wire bytes")
	}
	if compStats.RemoteBytesOut >= plainStats.RemoteBytesOut {
		t.Fatalf("compressed run shipped %d bytes, uncompressed %d",
			compStats.RemoteBytesOut, plainStats.RemoteBytesOut)
	}
	t.Logf("wire bytes: plain=%d compressed=%d saved=%d",
		plainStats.RemoteBytesOut, compStats.RemoteBytesOut, compStats.WireBytesSaved)
}

// BenchmarkGobCodecStream prices the gob fallback: one persistent
// en/decoder pair per stream.
func BenchmarkGobCodecStream(b *testing.B) {
	c, err := resolveSpillCodec[gobRec]()
	if err != nil {
		b.Fatal(err)
	}
	rec := gobRec{Name: "benchmark-record", N: 1 << 40}
	enc := c.forStream()
	dec := c.forStream()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = enc.enc(buf[:0], rec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err = dec.dec(buf); err != nil {
			b.Fatal(err)
		}
	}
}
