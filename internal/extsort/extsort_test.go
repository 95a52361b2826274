package extsort

import (
	"bytes"
	"io"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int32) bool { return a < b }

// int32Codec serializes int32 records for tests.
type int32Codec struct{}

func (int32Codec) Encode(w io.Writer, rec int32) error {
	var buf [4]byte
	buf[0] = byte(rec)
	buf[1] = byte(rec >> 8)
	buf[2] = byte(rec >> 16)
	buf[3] = byte(rec >> 24)
	_, err := w.Write(buf[:])
	return err
}

func (int32Codec) Decode(r io.Reader) (int32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return 0, err
	}
	return int32(buf[0]) | int32(buf[1])<<8 | int32(buf[2])<<16 | int32(buf[3])<<24, nil
}

func sortAll(t *testing.T, vals []int32, maxInMem int) []int32 {
	t.Helper()
	s := New(intLess, int32Codec{}, Config{MaxInMemory: maxInMem, TempDir: t.TempDir()})
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	out, err := it.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInMemoryPath(t *testing.T) {
	got := sortAll(t, []int32{5, 2, 9, 1, 2}, 100)
	want := []int32{1, 2, 2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSpillingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int32, 10000)
	for i := range vals {
		vals[i] = rng.Int31n(5000)
	}
	s := New(intLess, int32Codec{}, Config{MaxInMemory: 512, TempDir: t.TempDir()})
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Runs() < 10 {
		t.Fatalf("expected many spilled runs, got %d", s.Runs())
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	got, err := it.Drain()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int32(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestEmptyInput(t *testing.T) {
	got := sortAll(t, nil, 4)
	if len(got) != 0 {
		t.Errorf("got %v from empty input", got)
	}
}

func TestQuickMatchesSortSlice(t *testing.T) {
	prop := func(raw []int32, memBits uint8) bool {
		maxInMem := int(memBits)%32 + 2
		s := New(intLess, int32Codec{}, Config{MaxInMemory: maxInMem, TempDir: t.TempDir()})
		for _, v := range raw {
			if err := s.Add(v); err != nil {
				return false
			}
		}
		it, err := s.Sort()
		if err != nil {
			return false
		}
		got, err := it.Drain()
		if err != nil {
			return false
		}
		want := append([]int32(nil), raw...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAddAfterSortRejected(t *testing.T) {
	s := New(intLess, int32Codec{}, Config{TempDir: t.TempDir()})
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	if err := s.Add(1); err == nil {
		t.Error("Add after Sort accepted")
	}
	if _, err := s.Sort(); err == nil {
		t.Error("double Sort accepted")
	}
}

func TestIteratorCloseIdempotent(t *testing.T) {
	s := New(intLess, int32Codec{}, Config{MaxInMemory: 2, TempDir: t.TempDir()})
	for i := int32(0); i < 10; i++ {
		if err := s.Add(10 - i); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	it.Close()
	if _, ok, err := it.Next(); ok || err != nil {
		t.Error("closed iterator yielded a record")
	}
}

func TestEdgeCodecRoundTrip(t *testing.T) {
	recs := []WeightedEdgeRec{
		{Item: 0, Consumer: 0, Weight: 0.5},
		{Item: 2147483647, Consumer: -1, Weight: 1e-300},
		{Item: 42, Consumer: 7, Weight: 123456.789},
	}
	var buf bytes.Buffer
	for _, r := range recs {
		if err := (EdgeCodec{}).Encode(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range recs {
		got, err := (EdgeCodec{}).Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("round trip %v -> %v", want, got)
		}
	}
	if _, err := (EdgeCodec{}).Decode(&buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestByWeightDescOrdering(t *testing.T) {
	a := WeightedEdgeRec{Item: 1, Consumer: 1, Weight: 5}
	b := WeightedEdgeRec{Item: 0, Consumer: 0, Weight: 3}
	c := WeightedEdgeRec{Item: 0, Consumer: 1, Weight: 3}
	if !ByWeightDesc(a, b) || ByWeightDesc(b, a) {
		t.Error("weight ordering wrong")
	}
	if !ByWeightDesc(b, c) || ByWeightDesc(c, b) {
		t.Error("tie-break ordering wrong")
	}
}

func TestExternalSortEdgesByWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := New(ByWeightDesc, EdgeCodec{}, Config{MaxInMemory: 64, TempDir: t.TempDir()})
	for i := 0; i < 1000; i++ {
		err := s.Add(WeightedEdgeRec{
			Item: rng.Int31n(100), Consumer: rng.Int31n(50),
			Weight: rng.Float64(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	out, err := it.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Weight > out[i-1].Weight {
			t.Fatalf("weights not descending at %d", i)
		}
	}
}

// TestPipelinedWriterTinyBudget forces the double-buffered writer
// through hundreds of handoffs with a budget small enough that nearly
// every record spills, and checks the merged stream is exactly the
// sorted input. A tiny write buffer exercises mid-record bufio flushes.
func TestPipelinedWriterTinyBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int32, 5000)
	for i := range vals {
		vals[i] = rng.Int31n(1000) - 500
	}
	s := New(intLess, int32Codec{}, Config{
		MaxInMemory:   8,
		TempDir:       t.TempDir(),
		WriteBufBytes: 16,
	})
	for _, v := range vals {
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Runs() < 500 {
		t.Fatalf("expected hundreds of pipelined runs, got %d", s.Runs())
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	got, err := it.Drain()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int32(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("lost records: %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %d != %d", i, got[i], want[i])
		}
	}
	if s.Spilled() != int64(len(vals)) {
		t.Errorf("Spilled() = %d, want %d (everything spilled at budget 8)", s.Spilled(), len(vals))
	}
}

// TestPipelinedWriterStable pins the merge's new stability guarantee:
// records that compare equal come back in insertion order, because the
// buffer sort is stable and the loser tree breaks ties by run creation
// order.
func TestPipelinedWriterStable(t *testing.T) {
	type rec = WeightedEdgeRec
	s := New(func(a, b rec) bool { return a.Weight > b.Weight }, EdgeCodec{},
		Config{MaxInMemory: 7, TempDir: t.TempDir()})
	const n = 200
	for i := 0; i < n; i++ {
		// Three weight classes; Item records insertion order.
		if err := s.Add(rec{Item: int32(i), Weight: float64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	out, err := it.Drain()
	if err != nil {
		t.Fatal(err)
	}
	lastItem := map[float64]int32{}
	for i, r := range out {
		if i > 0 && out[i-1].Weight < r.Weight {
			t.Fatalf("weights not descending at %d", i)
		}
		if prev, ok := lastItem[r.Weight]; ok && prev >= r.Item {
			t.Fatalf("stability broken within weight %v: item %d after %d", r.Weight, r.Item, prev)
		}
		lastItem[r.Weight] = r.Item
	}
}

// TestPipelinedWriterSurfacesErrors checks that a failing spill target
// reports an error on the producer side instead of silently dropping
// runs: the write happens on a background goroutine, so the error may
// arrive on a later Add or at Sort, but it must arrive.
func TestPipelinedWriterSurfacesErrors(t *testing.T) {
	s := New(intLess, int32Codec{}, Config{
		MaxInMemory: 4,
		TempDir:     "/nonexistent-extsort-dir/really",
	})
	var sawErr error
	for i := int32(0); i < 64 && sawErr == nil; i++ {
		sawErr = s.Add(i)
	}
	// Sort is also what stops the writer of a sorter that failed.
	if _, err := s.Sort(); err == nil {
		t.Fatalf("Sort succeeded after spilling into a nonexistent TempDir (Add said: %v)", sawErr)
	}
}
