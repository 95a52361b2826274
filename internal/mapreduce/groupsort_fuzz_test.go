package mapreduce

import (
	"cmp"
	"slices"
	"testing"
)

// FuzzGroupSegs holds the group sort (groupSegs) to a reference: the
// records of a partition's delivered buckets must come out ordered as
// slices.SortStableFunc orders them by (key, split, position), position
// being the record's place in arrival order. The fuzz input picks the
// key type (int8, int16, int32, uint32 or a named int32), the record
// count, the key span, the lowest key and the buckets' splits and
// lengths; a seeded generator fills in the keys. Spans are drawn around
// the bounds that decide how a partition is sorted: 2^16 and 4 per
// record. Every case runs without and with split tags, on one arena, so
// the tagged run sorts in the untagged run's recycled arrays. The
// checked-in corpus under testdata/fuzz/FuzzGroupSegs holds each key
// type at each bound.
func FuzzGroupSegs(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, spanSel uint8, n uint16, base int64, seed uint64, layout []byte) {
		switch kind % 5 {
		case 0:
			fuzzGroupSegs[int8](t, spanSel, n, base, seed, layout)
		case 1:
			fuzzGroupSegs[int16](t, spanSel, n, base, seed, layout)
		case 2:
			fuzzGroupSegs[int32](t, spanSel, n, base, seed, layout)
		case 3:
			fuzzGroupSegs[uint32](t, spanSel, n, base, seed, layout)
		case 4:
			fuzzGroupSegs[nodeKey](t, spanSel, n, base, seed, layout)
		}
	})
}

// groupRec is one record of the reference sort.
type groupRec[K any] struct {
	key        K
	split, pos int32
}

func fuzzGroupSegs[K ~int8 | ~int16 | ~int32 | ~uint32](t *testing.T, spanSel uint8, n16 uint16, base int64, seed uint64, layout []byte) {
	n := int(n16) % 20000
	if len(layout) == 0 {
		layout = []byte{0}
	}
	layout = layout[:min(len(layout), 64)]
	var span uint64
	switch spanSel % 8 {
	case 0:
		span = 1
	case 1:
		span = 2
	case 2:
		span = 4 * uint64(n) // at the 4-per-record bound
	case 3:
		span = 4*uint64(n) + 1 // just past it
	case 4:
		span = 1<<16 - 1
	case 5:
		span = 1 << 16
	case 6:
		span = 1<<16 + 1
	case 7:
		span = seed>>24 | 1 // wide
	}
	span = max(span, 1)
	rng := seed
	next := func() uint64 { rng++; return mix64(rng) }
	// Record i's key; the first two pin the span's ends.
	keyAt := func(i int) K {
		off := next() % span
		switch i {
		case 0:
			off = 0
		case 1:
			off = span - 1
		}
		return K(base + int64(off))
	}
	// Bucket j gets split layout[j]%8 and a share of the records that
	// grows with layout[j]/8.
	weights := 0
	for _, b := range layout {
		weights += int(b/8) + 1
	}
	build := func() ([]bucketSeg[K, int32], []groupRec[K]) {
		rng = seed
		segs := make([]bucketSeg[K, int32], len(layout))
		recs := make([]groupRec[K], 0, n)
		done := 0
		for j, b := range layout {
			m := n * (int(b/8) + 1) / weights
			if j == len(layout)-1 {
				m = n - done
			}
			segs[j].split = int32(b % 8)
			for range m {
				k := keyAt(len(recs))
				segs[j].pairs = append(segs[j].pairs, P(k, int32(len(recs))))
				recs = append(recs, groupRec[K]{k, segs[j].split, int32(len(recs))})
			}
			done += m
		}
		return segs, recs
	}
	ar := arenaFor[K, int32](NewBufferPool(), 1)
	shape := keyShapeOf[K]()
	for _, tagged := range []bool{false, true} {
		segs, want := build()
		slices.SortStableFunc(want, func(a, b groupRec[K]) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.split, b.split), cmp.Compare(a.pos, b.pos))
		})
		keys, vals, splits, _ := groupSegs(segs, n, tagged, shape, ar, 0)
		if len(keys) != n || len(vals) != n {
			t.Fatalf("tagged=%v: %d keys and %d values for %d records", tagged, len(keys), len(vals), n)
		}
		if (tagged && len(splits) != n) || (!tagged && splits != nil) {
			t.Fatalf("tagged=%v: %d splits for %d records", tagged, len(splits), n)
		}
		for i, w := range want {
			if keys[i] != w.key || vals[i] != w.pos || (tagged && splits[i] != w.split) {
				t.Fatalf("tagged=%v, span %d, n %d: record %d is (key %v, pos %d), want (key %v, split %d, pos %d)",
					tagged, span, n, i, keys[i], vals[i], w.key, w.split, w.pos)
			}
		}
		for _, seg := range segs {
			if seg.pairs != nil {
				t.Fatal("groupSegs left a bucket referenced")
			}
		}
		ar.putKeys(0, keys)
		ar.putVals(0, vals)
		ar.putI32(0, splits)
	}
}
