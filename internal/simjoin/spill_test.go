package simjoin

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestPostingsRoundTrip: a term's group survives its encoding exactly —
// an empty group, one posting, and 10⁴ postings with docs and weights of
// every sign and size the join can produce.
func TestPostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	many := make(postings, 10_000)
	for i := range many {
		many[i] = posting{doc: rng.Int31(), w: rng.NormFloat64()}
	}
	many[0].doc, many[1].doc, many[2].w = 0, math.MaxInt32, math.Inf(1)
	for _, tc := range []struct {
		name string
		ps   postings
	}{
		{"empty", postings{}},
		{"one", postings{{doc: 7, w: 0.25}}},
		{"ten-thousand", many},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := tc.ps.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			var got postings
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.ps) {
				t.Fatalf("round trip changed the group: %d postings back for %d", len(got), len(tc.ps))
			}
		})
	}
}

// onePosting is a group of one posting whose doc is written as given,
// whether or not a posting can hold it.
func onePosting(doc int64) []byte {
	buf := binary.AppendUvarint(nil, 1)
	buf = binary.AppendVarint(buf, doc)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(0.5))
}

// TestPostingsDecodeRefusesCorruptData: damaged index bytes are an
// error, never a group — not a doc id truncated to 32 bits or below zero
// that the probe would index its tables with, and not a group sized
// from a count the bytes cannot back.
func TestPostingsDecodeRefusesCorruptData(t *testing.T) {
	good, _ := postings{{doc: 3, w: 0.5}, {doc: 9, w: 2}}.AppendBinary(nil)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"no count", nil, "count"},
		{"padded count", []byte{0x80, 0x00}, "count"},
		{"count past the bytes", append(binary.AppendUvarint(nil, 3), good[1:]...), "count"},
		{"count past int", binary.AppendUvarint(nil, math.MaxUint64), "count"},
		{"doc past int32", onePosting(math.MaxInt32 + 1), "posting"},
		{"doc past 32 bits", onePosting(1<<32 + 5), "posting"},
		{"negative doc", onePosting(-1), "posting"},
		{"padded doc", []byte{0x01, 0x86, 0x00, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, "posting"},
		{"group cut short", good[:len(good)-1], "count"},
		{"weight cut short", []byte{0x01, 0x80, 0x01, 0, 0, 0, 0, 0, 0, 0}, "posting"},
		{"trailing byte", append(bytes.Clone(good), 0), "trailing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ps postings
			err := ps.UnmarshalBinary(tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a refusal mentioning %q", err, tc.want)
			}
			if ps != nil {
				t.Fatalf("a refused decode left %d postings", len(ps))
			}
		})
	}
	var p posting
	for _, data := range [][]byte{onePosting(math.MaxInt32 + 1)[1:], onePosting(-1)[1:], append(onePosting(4)[1:], 0)} {
		if err := p.UnmarshalBinary(data); err == nil {
			t.Errorf("posting %x decoded as %+v", data, p)
		}
	}
}

// FuzzPostingsDecode feeds the index job's decoders — postings, the
// group the dist backend ships and mirrors per term, and posting, the
// shuffled record the spill merge and a worker's socket hand over —
// arbitrary bytes. The contract: an error, or a value that encodes back
// to the same bytes; never a panic. The checked-in corpus under
// testdata/fuzz/FuzzPostingsDecode holds an empty input, an empty
// group, one posting, many postings, and the shapes the decoder exists
// to refuse: a truncated group, an over-declared count, a doc past int32
// and a negative doc.
func FuzzPostingsDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps postings
		if err := ps.UnmarshalBinary(data); err == nil {
			if back, _ := ps.AppendBinary(nil); !bytes.Equal(back, data) {
				t.Fatalf("postings decoded without error but encode differently:\n in  %x\n out %x", data, back)
			}
		}
		var p posting
		if err := p.UnmarshalBinary(data); err == nil {
			if back, _ := p.AppendBinary(nil); !bytes.Equal(back, data) {
				t.Fatalf("posting decoded without error but encodes differently:\n in  %x\n out %x", data, back)
			}
		}
	})
}

// FuzzIndexParams feeds decodeIndex — the probe job's parameters, the
// pruned index a dist worker probes with — arbitrary bytes under an
// arbitrary item count. The contract: an error, or an index of items
// below the count that encodes back to the same bytes; never a panic,
// and never a table sized past what the bytes can back. The checked-in
// corpus under testdata/fuzz/FuzzIndexParams holds an empty input, an
// empty index, an index with an empty term, one of several terms, and
// the shapes the decoder exists to refuse: an item past the count, an
// over-declared term count, a padded item and a trailing byte.
func FuzzIndexParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, numItems uint16, data []byte) {
		index, err := decodeIndex(data, int(numItems))
		if err != nil {
			return
		}
		held := len(index)
		for _, docs := range index {
			held += len(docs)
			for _, d := range docs {
				if d < 0 || int(d) >= int(numItems) {
					t.Fatalf("item %d decoded under an item count of %d", d, numItems)
				}
			}
		}
		if held > len(data) {
			t.Fatalf("%d terms and items from a %d-byte blob", held, len(data))
		}
		if back := encodeIndex(index); !bytes.Equal(back, data) {
			t.Fatalf("decoded without error but encodes differently:\n in  %x\n out %x", data, back)
		}
	})
}

// TestIndexParamsRoundTrip: the probe job's index survives its encoding
// exactly, empty terms included, and the damaged shapes the fuzz corpus
// holds are refused.
func TestIndexParamsRoundTrip(t *testing.T) {
	index := [][]int32{{0, 4, 2}, nil, {300}}
	got, err := decodeIndex(encodeIndex(index), 301)
	if err != nil || !reflect.DeepEqual(got, index) {
		t.Fatalf("round trip: %v, %v; want %v", got, err, index)
	}
	for _, tc := range []struct {
		name     string
		numItems int
		data     []byte
	}{
		{"empty input", 5, nil},
		{"item past the count", 4, []byte{1, 1, 4}},
		{"term count past the bytes", 5, []byte{5, 1, 0}},
		{"padded item", 5, []byte{1, 1, 0x80, 0x00}},
		{"trailing byte", 5, []byte{1, 0, 0}},
	} {
		if index, err := decodeIndex(tc.data, tc.numItems); err == nil {
			t.Errorf("%s: %x decoded as %v", tc.name, tc.data, index)
		}
	}
}
