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
// an empty group, one posting, and 10⁴ postings with items of every size
// the join can produce.
func TestPostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	many := make(postings, 10_000)
	for i := range many {
		many[i] = rng.Int31()
	}
	many[0], many[1] = 0, math.MaxInt32
	for _, tc := range []struct {
		name string
		ps   postings
	}{
		{"empty", postings{}},
		{"one", postings{7}},
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

// onePosting is a group of one posting whose item is written as given,
// whether or not a posting can hold it.
func onePosting(doc int64) []byte {
	return binary.AppendVarint(binary.AppendUvarint(nil, 1), doc)
}

// TestPostingsDecodeRefusesCorruptData: damaged index bytes are an
// error, never a group — not an item truncated to 32 bits or below zero
// that the probe would index its tables with, and not a group sized
// from a count the bytes cannot back.
func TestPostingsDecodeRefusesCorruptData(t *testing.T) {
	good, _ := postings{3, 9}.AppendBinary(nil)
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
		{"padded doc", []byte{0x01, 0x86, 0x00}, "posting"},
		{"group cut short", good[:len(good)-1], "count"},
		{"doc cut short", []byte{0x01, 0x80}, "posting"},
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
}

// FuzzPostingsDecode feeds the index job's group decoder — postings, the
// value the dist backend ships and a fetch hands back per term —
// arbitrary bytes. The contract: an error, or a group that encodes back
// to the same bytes; never a panic. The checked-in corpus under
// testdata/fuzz/FuzzPostingsDecode holds an empty input, an empty
// group, one posting, many postings, and the shapes the decoder exists
// to refuse: a truncated group, an over-declared count, an item past
// int32 and a negative item.
func FuzzPostingsDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps postings
		if err := ps.UnmarshalBinary(data); err == nil {
			if back, _ := ps.AppendBinary(nil); !bytes.Equal(back, data) {
				t.Fatalf("postings decoded without error but encode differently:\n in  %x\n out %x", data, back)
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
