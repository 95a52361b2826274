package mapreduce

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzGroupSegs holds the group sort (groupSegs) to a reference: the
// records of a partition's delivered buckets must come out ordered as
// slices.SortStableFunc orders them by (key, split, position), position
// being the record's place in arrival order. The fuzz input picks the
// key type (int8, int16, int32, uint32, a named int32, int64 or uint64),
// the record count, the key span, the lowest key and the buckets' splits
// and lengths; a seeded generator fills in the keys. Spans are drawn
// around the bounds that decide how a partition is sorted: 2^16 and 4
// per record, 2^11, 2^22 and 2^33 (where an 11-bit digit pass is added)
// and the full 64-bit range, plus a 2^33 span whose keys share their low
// 11 bits. Every case runs without and with split tags, on one arena, so
// the tagged run sorts in the untagged run's recycled arrays. The
// checked-in corpus under testdata/fuzz/FuzzGroupSegs holds each key
// type at each bound.
func FuzzGroupSegs(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, spanSel uint8, n uint16, base int64, seed uint64, layout []byte) {
		switch kind % 7 {
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
		case 5:
			fuzzGroupSegs[int64](t, spanSel, n, base, seed, layout)
		case 6:
			fuzzGroupSegs[uint64](t, spanSel, n, base, seed, layout)
		}
	})
}

// groupRec is one record of the reference sort.
type groupRec[K any] struct {
	key        K
	split, pos int32
}

func fuzzGroupSegs[K ~int8 | ~int16 | ~int32 | ~uint32 | ~int64 | ~uint64](t *testing.T, spanSel uint8, n16 uint16, base int64, seed uint64, layout []byte) {
	n, layout := fuzzSize(n16, layout)
	var span uint64
	full := false        // every 64-bit offset, span notwithstanding
	lowMask := uint64(0) // offset bits forced to zero
	switch spanSel % 16 {
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
	case 8:
		span = 1 << 11 // one 11-bit digit
	case 9:
		span = 1<<11 + 1
	case 10:
		span = 1 << 22 // two
	case 11:
		span = 1<<22 + 1
	case 12:
		span = 1 << 33 // three
	case 13:
		span = 1<<33 + 1
	case 14:
		full = true
	case 15:
		span, lowMask = 1<<33, 1<<11-1 // the low digit never varies
	}
	span = max(span, 1)
	rng := seed
	next := func() uint64 { rng++; return mix64(rng) }
	// Record i's key; the first two pin the span's ends.
	keyAt := func(i int) K {
		off := next()
		if !full {
			off %= span
		}
		switch i {
		case 0:
			off = 0
		case 1:
			off = span - 1
			if full {
				off = math.MaxUint64
			}
		}
		return K(base + int64(off&^lowMask))
	}
	build := func() ([]bucketSeg[K, int32], []groupRec[K]) {
		rng = seed
		return layoutSegs(n, layout, keyAt)
	}
	checkGroupSegs(t, n, build, cmp.Compare[K], fmt.Sprintf("span %d", span))
}

// fuzzSize bounds a fuzzed record count and bucket layout: at most
// 20000 records in at most 64 buckets, and at least one bucket.
func fuzzSize(n16 uint16, layout []byte) (int, []byte) {
	if len(layout) == 0 {
		layout = []byte{0}
	}
	return int(n16) % 20000, layout[:min(len(layout), 64)]
}

// layoutSegs deals n records into one bucket per layout byte: bucket j
// gets split layout[j]%8 and a share of the records that grows with
// layout[j]/8. Record i has key keyAt(i) and value i, its position.
func layoutSegs[K comparable](n int, layout []byte, keyAt func(i int) K) ([]bucketSeg[K, int32], []groupRec[K]) {
	weights := 0
	for _, b := range layout {
		weights += int(b/8) + 1
	}
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

// checkGroupSegs runs the group sort over the buckets build makes and
// holds it to the reference: build's records sorted by slices.SortStableFunc
// on (order, split, position). It runs untagged and then tagged on one
// arena, so the tagged run sorts in the untagged run's recycled arrays;
// build must make the same buckets each time.
func checkGroupSegs[K comparable](t *testing.T, n int, build func() ([]bucketSeg[K, int32], []groupRec[K]), order func(a, b K) int, what string) {
	ar := arenaFor[K, int32](NewBufferPool(), 1)
	shape := keyShapeOf[K]()
	for _, tagged := range []bool{false, true} {
		segs, want := build()
		slices.SortStableFunc(want, func(a, b groupRec[K]) int {
			return cmp.Or(order(a.key, b.key), cmp.Compare(a.split, b.split), cmp.Compare(a.pos, b.pos))
		})
		keys, vals, splits := groupSegs(segs, n, tagged, shape, ar, 0)
		if len(keys) != n || len(vals) != n {
			t.Fatalf("tagged=%v: %d keys and %d values for %d records", tagged, len(keys), len(vals), n)
		}
		if (tagged && len(splits) != n) || (!tagged && splits != nil) {
			t.Fatalf("tagged=%v: %d splits for %d records", tagged, len(splits), n)
		}
		for i, w := range want {
			if keys[i] != w.key || vals[i] != w.pos || (tagged && splits[i] != w.split) {
				t.Fatalf("tagged=%v, %s, n %d: record %d is (key %q, pos %d), want (key %q, split %d, pos %d)",
					tagged, what, n, i, fmt.Sprint(keys[i]), vals[i], fmt.Sprint(w.key), w.split, w.pos)
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

// FuzzGroupSegsKeys holds the group sort of the keys that are not
// integers, [2]int32 and strings, to the same reference as
// FuzzGroupSegs: (key, split, position) under the key order, which for
// [2]int32 is the first component and then the second, both signed, and
// for strings is byte-wise. The fuzz input picks the kind, a spread, the
// record count, the buckets' splits and lengths and, for strings, an
// alphabet; a seeded generator fills in the keys.
//
// A [2]int32 component is drawn from spread+1 values centred on zero, or
// is math.MinInt32 or math.MaxInt32, so keys are negative, share their
// first component and hit both ends. A string is up to spread%24 bytes
// of the alphabet ("\x00a" when empty): "" and NUL bytes ("a" against
// "a\x00"), keys that share their first 8 bytes and keys longer than 8
// bytes. The checked-in corpus under testdata/fuzz/FuzzGroupSegsKeys
// holds each of these cases.
func FuzzGroupSegsKeys(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, spread uint8, n16 uint16, seed uint64, layout, alpha []byte) {
		n, layout := fuzzSize(n16, layout)
		rng := seed
		next := func() uint64 { rng++; return mix64(rng) }
		what := fmt.Sprintf("spread %d", spread)
		if kind%2 == 0 {
			comp := func() int32 {
				switch r := next(); r % 16 {
				case 0:
					return math.MinInt32
				case 1:
					return math.MaxInt32
				default:
					return int32(int64(r>>8%(uint64(spread)+1)) - int64(spread)/2)
				}
			}
			build := func() ([]bucketSeg[[2]int32, int32], []groupRec[[2]int32]) {
				rng = seed
				return layoutSegs(n, layout, func(int) [2]int32 { return [2]int32{comp(), comp()} })
			}
			checkGroupSegs(t, n, build, func(a, b [2]int32) int {
				return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
			}, what)
			return
		}
		if len(alpha) == 0 {
			alpha = []byte("\x00a")
		}
		maxLen := uint64(spread%24) + 1
		key := func(int) string {
			b := make([]byte, next()%maxLen)
			for i := range b {
				b[i] = alpha[next()%uint64(len(alpha))]
			}
			return string(b)
		}
		build := func() ([]bucketSeg[string, int32], []groupRec[string]) {
			rng = seed
			return layoutSegs(n, layout, key)
		}
		checkGroupSegs(t, n, build, strings.Compare, what+fmt.Sprintf(", alphabet %q", alpha))
	})
}
