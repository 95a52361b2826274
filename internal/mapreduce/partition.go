package mapreduce

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"unsafe"
)

// partitionIndex assigns a key to one of r partitions. The mapping is
// pure: the same key always lands in the same partition, which is the
// only property the algorithms rely on. Loops over many keys resolve
// keyShapeOf once and call its partition method instead.
func partitionIndex[K comparable](key K, r int) int {
	return keyShapeOf[K]().partition(key, r)
}

// FNV-1a constants (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keyKind classifies a key type by its reflect.Kind, so a named type
// (graph.NodeID, vector.TermID) hashes, orders and projects exactly as
// its underlying type does.
type keyKind uint8

const (
	keyInt    keyKind = iota // signed integer kinds
	keyUint                  // unsigned integer kinds
	keyString                // string kinds
	keyEdge                  // [2]int32 (edge endpoints)
)

// keyShape is how keys of type K hash and order, resolved once per job
// or emitter — never per pair. Keys are read through the same
// layout-preserving reinterpretation codecv2.go uses for its columns,
// so no key is boxed, reflected on, or formatted on the record path.
type keyShape[K comparable] struct {
	kind keyKind
	size uint8 // key width in bytes (integer kinds)
}

// keyShapeOf resolves the shape of K, which the job entry points have
// accepted (checkKeys); it panics with orderedKey's refusal otherwise.
func keyShapeOf[K comparable]() keyShape[K] {
	s, err := orderedKey[K]()
	if err != nil {
		panic(err)
	}
	return s
}

// orderedKey is the one place that decides which key types the engine
// orders: every integer kind, string kinds and [2]int32, named or plain.
// Each kind's order ties exactly where Go equality does, which is what
// lets a group end at the first key that differs. Any other type is
// refused, as Hadoop refuses a key that is not WritableComparable.
func orderedKey[K comparable]() (keyShape[K], error) {
	t := reflect.TypeFor[K]()
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return keyShape[K]{keyInt, uint8(t.Size())}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return keyShape[K]{keyUint, uint8(t.Size())}, nil
	case reflect.String:
		return keyShape[K]{kind: keyString}, nil
	case reflect.Array:
		if t.Len() == 2 && t.Elem().Kind() == reflect.Int32 {
			return keyShape[K]{kind: keyEdge}, nil
		}
	}
	return keyShape[K]{}, fmt.Errorf("mapreduce: key type %v is refused: a key must be an integer, a string or [2]int32", t)
}

// checkKeys refuses a job whose intermediate key K2 or output key K3
// the engine does not order, before anything of the job runs.
func checkKeys[K2, K3 comparable]() error {
	if _, err := orderedKey[K2](); err != nil {
		return err
	}
	_, err := orderedKey[K3]()
	return err
}

// bits returns an integer key's raw bits, zero-extended from its width.
func (s keyShape[K]) bits(k K) uint64 {
	p := unsafe.Pointer(&k)
	switch s.size {
	case 1:
		return uint64(*(*uint8)(p))
	case 2:
		return uint64(*(*uint16)(p))
	case 4:
		return uint64(*(*uint32)(p))
	}
	return *(*uint64)(p)
}

// str returns a string-kind key's value.
func (s keyShape[K]) str(k K) string { return *(*string)(unsafe.Pointer(&k)) }

// edge returns a [2]int32-kind key's value.
func (s keyShape[K]) edge(k K) [2]int32 { return *(*[2]int32)(unsafe.Pointer(&k)) }

// partition assigns key to one of r partitions.
func (s keyShape[K]) partition(key K, r int) int {
	if r <= 1 {
		return 0
	}
	return int(s.hash(key) % uint64(r))
}

// hash produces a stable 64-bit hash for a key. Changing what any key
// hashes to moves keys between partitions: bump remote.Proto with it, so
// a mixed-build cluster fails loudly instead of splitting a node's
// records.
func (s keyShape[K]) hash(key K) uint64 {
	switch s.kind {
	case keyInt, keyUint:
		return mix64(s.bits(key))
	case keyString:
		// Inlined FNV-1a over the string bytes — identical output to
		// fnv.New64a without the hasher and []byte allocations.
		k := s.str(key)
		h := uint64(fnvOffset64)
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= fnvPrime64
		}
		return h
	}
	k := s.edge(key) // keyEdge, the one kind left
	return mix64(uint64(uint32(k[0]))<<32 | uint64(uint32(k[1])))
}

// mix64 is the SplitMix64 finalizer; it spreads consecutive integer ids
// uniformly across partitions.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cmp returns the three-way comparator realizing the key order,
// consistent with the sort permutation sortKeyVals produces: integer
// kinds and [2]int32 compare their order-preserving images, string
// kinds compare as strings. It returns 0 exactly when a == b.
func (s keyShape[K]) cmp() func(a, b K) int {
	if img, _ := s.numericImage(); img != nil {
		return func(a, b K) int { return cmp.Compare(img(a), img(b)) }
	}
	return func(a, b K) int { return strings.Compare(s.str(a), s.str(b)) }
}

// --- order-preserving uint64 key transforms ---------------------------
//
// The group sort never calls a comparator: each key is projected once to
// a uint64 whose unsigned order equals the key order, and the projected
// keys are radix-sorted. This is the decorate-sort-undecorate idea taken
// to its cheapest form — O(n) passes over machine words instead of
// O(n log n) comparator calls.

// i32Ord32 is the order-preserving unsigned image of a signed 32-bit
// integer (sign bit flipped).
func i32Ord32(v int32) uint32 { return uint32(v) ^ (1 << 31) }

// numericImage returns the injective uint64 projection for K, or nil
// for string kinds. width32 reports that the projection fits 32 bits,
// enabling the packed sort path. A signed integer's image is its raw
// bits with the sign bit of its width flipped; an unsigned integer is
// its own image.
func (s keyShape[K]) numericImage() (fn func(K) uint64, width32 bool) {
	switch s.kind {
	case keyInt:
		flip := uint64(1) << (8*s.size - 1)
		return func(k K) uint64 { return s.bits(k) ^ flip }, s.size <= 4
	case keyUint:
		return s.bits, s.size <= 4
	case keyEdge:
		return func(k K) uint64 {
			x := s.edge(k)
			return uint64(i32Ord32(x[0]))<<32 | uint64(i32Ord32(x[1]))
		}, false
	}
	return nil, false
}

// image returns the uint64 projection used to accelerate ordered
// comparisons of K: the order-preserving numeric image when K has one,
// otherwise the 8-byte big-endian prefix of the string. The projection
// is order-consistent — img(a) < img(b) implies a < b under the key
// order, and only equal images require a real key comparison — which is
// exactly what the spill merge needs to compare machine words instead
// of boxing keys.
func (s keyShape[K]) image() func(K) uint64 {
	if numFn, _ := s.numericImage(); numFn != nil {
		return numFn
	}
	return func(k K) uint64 {
		p, _ := strPrefix64(s.str(k))
		return p
	}
}

// radixScratch holds the reusable temporaries of the group sorts:
// radixSortU64's scatter buffers, and the counting histograms of
// radixSortU64 and scatterNarrow. A zero value is ready to use; buffers
// grow to the largest sort seen and are reused across calls, so a
// steady-state round loop performs no sort-scratch allocation.
type radixScratch struct {
	tmpK   []uint64 // radix scatter buffer
	tmpP   []int32  // radix scatter buffer for the payload
	counts []int32  // histograms (cleared per pass)
}

// growU64 returns a slice of length n, reusing buf's storage when it is
// large enough.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]uint64, n)
}

// growI32 is growU64 for int32 slices.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

// histogram returns a zeroed histogram of length n carved from the
// scratch counts buffer (allocating only on growth).
func (s *radixScratch) histogram(n int) []int32 {
	s.counts = growI32(s.counts, n)
	clear(s.counts)
	return s.counts
}

// sortedRun describes the sorted key-image array that the image sort
// (sortKeyVals) leaves beside the sorted keys of one partition, letting
// the group stream find group boundaries by comparing machine words
// instead of keys. The counting scatter (scatterNarrow) makes no images:
// its run is the zero value, and group ends are found by comparing keys.
type sortedRun struct {
	// ord holds one uint64 per element, ascending in key order; the
	// image of element i is ord[i] >> shift.
	ord   []uint64
	shift uint
	// exact reports that image equality coincides with key equality
	// (injective projections: integer kinds, [2]int32, and string
	// prefixes when no key exceeds 8 bytes), so boundary detection
	// needs no key comparison at all. When false, equal images still
	// narrow the boundary test to a key-equality check.
	exact bool
}

// bucketSeg is one delivered emit bucket and the map split it came from.
type bucketSeg[K comparable, V any] struct {
	split int32
	pairs []Pair[K, V]
}

// splitMajor orders buckets by split, each split's in the order they
// arrived — which is the order they were emitted in.
func splitMajor[K comparable, V any](segs []bucketSeg[K, V]) {
	slices.SortStableFunc(segs, func(a, b bucketSeg[K, V]) int { return cmp.Compare(a.split, b.split) })
}

// groupSegs is the group sort of one partition: it takes the n records
// of segs (delivered buckets, in arrival order) and returns them ordered
// by (key, split, arrival) as sorted key and value arrays — and, when
// tagged, a third array holding each record's split — plus the sorted
// key images when the sort made them (see sortedRun). This order is the
// engine's value-order contract: within one key, values run split
// ascending, then in emission order.
//
// Integer keys of a narrow range take scatterNarrow: one counting
// scatter straight out of the buckets into the sorted arrays, and no
// key images. Wider integer keys, [2]int32 keys and strings are gathered
// into arrays and image-sorted (sortKeyVals).
//
// The buckets go back to ar and segs is left empty of references. The
// returned arrays are checked out of ar when one is set; the caller owns
// returning them. n == 0 returns nil arrays.
func groupSegs[K comparable, V any](
	segs []bucketSeg[K, V], n int, tagged bool, shape keyShape[K],
	ar *roundArena[K, V], part int,
) ([]K, []V, []int32, sortedRun) {
	splitMajor(segs)
	defer func() {
		for _, seg := range segs {
			ar.putBucket(part, seg.pairs)
		}
		clear(segs)
	}()
	if n == 0 {
		return nil, nil, nil, sortedRun{}
	}
	if keys, vals, splits, ok := scatterNarrow(segs, n, tagged, shape, ar, part); ok {
		return keys, vals, splits, sortedRun{}
	}
	keys := ar.getKeys(part, n)
	vals := ar.getVals(part, n)
	var splits []int32
	if tagged {
		splits = ar.getI32(part, n)
	}
	i := 0
	for _, seg := range segs {
		for _, pr := range seg.pairs {
			keys[i], vals[i] = pr.Key, pr.Value
			if tagged {
				splits[i] = seg.split
			}
			i++
		}
	}
	if n < 2 {
		return keys, vals, splits, sortedRun{} // nothing to sort
	}
	rs := ar.getRadix(part)
	outK, outV, outS, run := sortKeyVals(keys, vals, splits, shape, ar, part, rs)
	ar.putRadix(part, rs)
	ar.putKeys(part, keys)
	ar.putVals(part, vals)
	ar.putI32(part, splits)
	return outK, outV, outS, run
}

// scatterNarrow groups integer keys whose range is narrow — at most 2^16
// distinct values between the smallest and the largest, and at most 4
// per record — by counting, as the payload-scatter partitioning of
// Polychroniou & Ross (SIGMOD 2014) does: one sweep finds the range, one
// counts each key, and one stable scatter moves every record's key,
// value and (when tagged) split straight from the buckets to its sorted
// slot. Buckets are read split-major, so equal keys keep (split,
// arrival) order. Its only working memory beyond the outputs is the
// histogram, from the radix scratch. ok is false, after the one sweep,
// for any other key: a non-integer kind or a wide range.
func scatterNarrow[K comparable, V any](
	segs []bucketSeg[K, V], n int, tagged bool, shape keyShape[K],
	ar *roundArena[K, V], part int,
) (keys []K, vals []V, splits []int32, ok bool) {
	var flip uint64 // makes a signed key's bits order as unsigned
	switch shape.kind {
	case keyInt:
		flip = 1 << (8*shape.size - 1)
	case keyUint:
	default:
		return nil, nil, nil, false
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, seg := range segs {
		for _, p := range seg.pairs {
			x := shape.bits(p.Key) ^ flip
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	if hi-lo >= 1<<16 || hi-lo >= 4*uint64(n) {
		return nil, nil, nil, false
	}
	rs := ar.getRadix(part)
	defer ar.putRadix(part, rs)
	counts := rs.histogram(int(hi-lo) + 1)
	for _, seg := range segs {
		for _, p := range seg.pairs {
			counts[shape.bits(p.Key)^flip-lo]++
		}
	}
	var sum int32
	for d, c := range counts {
		counts[d] = sum
		sum += c
	}
	keys, vals = ar.getKeys(part, n), ar.getVals(part, n)
	if tagged {
		splits = ar.getI32(part, n)
	}
	for _, seg := range segs {
		for _, p := range seg.pairs {
			d := shape.bits(p.Key) ^ flip - lo
			o := counts[d]
			keys[o], vals[o] = p.Key, p.Value
			if tagged {
				splits[o] = seg.split
			}
			counts[d] = o + 1
		}
	}
	return keys, vals, splits, true
}

// sortKeyVals is the image sort, for the keys scatterNarrow declines:
// integers of a wide range, [2]int32 and strings. It stable-sorts the
// parallel keys and vals slices — and tags, the split of each record,
// when non-nil — by key and returns the sorted slices (freshly
// gathered; the inputs are consumed as scratch) plus the sorted key
// images for boundary scanning: keys ascending under the resolved key
// order, ties (equal keys) in original slice order. Stability is
// load-bearing — within equal keys the original order is (split index,
// emission index), which is the engine's value-order contract.
//
// No comparator ever runs: each key is projected once to an
// order-preserving uint64 image (numeric kinds) or an 8-byte string
// prefix, the images are LSD radix-sorted carrying the original index,
// and the outputs are gathered through the resulting permutation
// (sequential writes, prefetchable reads). Indexes are int32: one
// partition's in-memory pairs can't meaningfully exceed 2^31 records
// (that's already >16 GiB of Pair headers). Beyond its bucket, an
// 8-byte message (an int32 key and an int32 value) costs 32 B of working
// memory here: the gathered key and value, the packed image, its radix
// scatter copy, and the sorted key and value.
//
// ar/part/rs supply recycled buffers (all may be nil/zero): the
// returned slices and run.ord are checked out of ar when one is set —
// the caller owns returning them — while the permutation array is
// checked back in here. Inputs of length >= 2 are pure scratch after the
// call and the caller returns those too, and their run carries its key
// images; length < 2 inputs are returned unchanged as the outputs, with
// no run.
func sortKeyVals[K comparable, V any](
	keys []K, vals []V, tags []int32, shape keyShape[K],
	ar *roundArena[K, V], part int, rs *radixScratch,
) ([]K, []V, []int32, sortedRun) {
	n := len(keys)
	if n < 2 {
		return keys, vals, tags, sortedRun{}
	}
	if numFn, width32 := shape.numericImage(); numFn != nil {
		if width32 {
			// Packed path: key image in the high 32 bits, index in the
			// low 32. Radix passes touch only the key bytes; the LSD
			// scatter is stable, so equal keys keep ascending index
			// order without the index ever being sorted on.
			packed := ar.getU64(part, n)
			for i, k := range keys {
				packed[i] = numFn(k)<<32 | uint64(uint32(i))
			}
			radixSortU64(packed, nil, 4, rs)
			outK := ar.getKeys(part, n)
			outV := ar.getVals(part, n)
			for i, p := range packed {
				j := uint32(p)
				outK[i] = keys[j]
				outV[i] = vals[j]
			}
			var outT []int32
			if tags != nil {
				outT = ar.getI32(part, n)
				for i, p := range packed {
					outT[i] = tags[uint32(p)]
				}
			}
			return outK, outV, outT, sortedRun{ord: packed, shift: 32, exact: true}
		}
		images := ar.getU64(part, n)
		perm := ar.getI32(part, n)
		for i, k := range keys {
			images[i] = numFn(k)
			perm[i] = int32(i)
		}
		radixSortU64(images, perm, 0, rs)
		outK, outV, outT := gatherPerm(perm, keys, vals, tags, ar, part)
		ar.putI32(part, perm)
		return outK, outV, outT, sortedRun{ord: images, exact: true}
	}
	// String keys: radix-sort by an 8-byte big-endian prefix
	// (order-preserving for lexicographic comparison), then repair the
	// rare runs whose prefixes collide with a comparison sort.
	prefixes := ar.getU64(part, n)
	perm := ar.getI32(part, n)
	str := func(i int32) string { return shape.str(keys[i]) }
	anyAmbiguous := false
	for i := range keys {
		p, ambiguous := strPrefix64(str(int32(i)))
		anyAmbiguous = anyAmbiguous || ambiguous
		prefixes[i] = p
		perm[i] = int32(i)
	}
	radixSortU64(prefixes, perm, 0, rs)
	if anyAmbiguous {
		// Only ambiguous keys (longer than the prefix, or containing
		// NUL bytes indistinguishable from the zero padding) can make
		// two distinct keys collide; otherwise the prefix order is
		// exact and no repair pass is needed.
		fixupPrefixRuns(prefixes, perm, str)
	}
	outK, outV, outT := gatherPerm(perm, keys, vals, tags, ar, part)
	ar.putI32(part, perm)
	// A prefix run is exact only when no key is ambiguous.
	return outK, outV, outT, sortedRun{ord: prefixes, exact: !anyAmbiguous}
}

// gatherPerm gathers keys, vals and (when non-nil) tags into output
// slices (checked out of ar when one is set) so that position i holds
// the elements originally at perm[i].
func gatherPerm[K comparable, V any](
	perm []int32, keys []K, vals []V, tags []int32, ar *roundArena[K, V], part int,
) ([]K, []V, []int32) {
	outK := ar.getKeys(part, len(perm))
	outV := ar.getVals(part, len(perm))
	for i, p := range perm {
		outK[i] = keys[p]
		outV[i] = vals[p]
	}
	var outT []int32
	if tags != nil {
		outT = ar.getI32(part, len(perm))
		for i, p := range perm {
			outT[i] = tags[p]
		}
	}
	return outK, outV, outT
}

// strPrefix64 packs the first 8 bytes of s big-endian (zero-padded), so
// uint64 order equals lexicographic order up to the prefix length.
// ambiguous reports that the image may collide with a different key's:
// the string extends past the prefix, or its prefix bytes contain a NUL
// that the zero padding of a shorter key could mimic ("a" vs "a\x00").
func strPrefix64(s string) (p uint64, ambiguous bool) {
	if len(s) >= 8 {
		// The compiler combines this into a single 8-byte load.
		p = uint64(s[7]) | uint64(s[6])<<8 | uint64(s[5])<<16 | uint64(s[4])<<24 |
			uint64(s[3])<<32 | uint64(s[2])<<40 | uint64(s[1])<<48 | uint64(s[0])<<56
		// SWAR zero-byte test over the eight prefix bytes.
		hasNul := (p-0x0101010101010101)&^p&0x8080808080808080 != 0
		return p, len(s) > 8 || hasNul
	}
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b == 0 {
			ambiguous = true
		}
		p |= uint64(b) << (56 - 8*i)
	}
	return p, ambiguous
}

// fixupPrefixRuns finishes the string sort: within every run of equal
// prefixes that could still be misordered (any member with an ambiguous
// image), re-sort the run by (full string, original index). The index
// tiebreak makes the unstable slices.SortFunc deterministic and
// restores stability, because equal strings resolve by original
// position.
func fixupPrefixRuns(prefixes []uint64, perm []int32, str func(int32) string) {
	n := len(prefixes)
	ambig := func(i int32) bool {
		_, a := strPrefix64(str(i))
		return a
	}
	for i := 0; i < n; {
		j := i + 1
		needs := ambig(perm[i])
		for j < n && prefixes[j] == prefixes[i] {
			needs = needs || ambig(perm[j])
			j++
		}
		if needs && j-i > 1 {
			run := perm[i:j]
			slices.SortFunc(run, func(a, b int32) int {
				if c := strings.Compare(str(a), str(b)); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
		i = j
	}
}

// radixSortU64 stable-sorts keys ascending by their bytes from loByte
// up, optionally carrying perm as payload (nil when the payload is
// packed into the keys themselves). LSD radix with a counting scatter
// per byte: O(passes·n), no comparator calls. Only bytes that actually
// vary are histogrammed and scattered — one or/and sweep finds them.
// It sorts the images of the keys the counting scatter declines (wide
// integers, [2]int32, string prefixes); narrow integer keys never reach
// it. scr supplies the scatter buffers and histograms (nil allocates
// fresh ones).
func radixSortU64(keys []uint64, perm []int32, loByte int, scr *radixScratch) {
	n := len(keys)
	if n < 2 {
		return
	}
	if scr == nil {
		scr = &radixScratch{}
	}
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	diff := (or ^ and) &^ (1<<(8*loByte) - 1)
	if diff == 0 {
		return
	}
	var active [8]int
	nb := 0
	for b := loByte; b < 8; b++ {
		if diff>>(8*b)&0xff != 0 {
			active[nb] = b
			nb++
		}
	}
	// One flat histogram block per active byte, filled in a single
	// sweep over the data.
	counts := scr.histogram(nb * 256)
	for _, k := range keys {
		for bi := 0; bi < nb; bi++ {
			counts[bi*256+int((k>>(8*active[bi]))&0xff)]++
		}
	}
	scr.tmpK = growU64(scr.tmpK, n)
	tmpK := scr.tmpK
	var tmpP []int32
	if perm != nil {
		scr.tmpP = growI32(scr.tmpP, n)
		tmpP = scr.tmpP
	}
	srcK, dstK := keys, tmpK
	srcP, dstP := perm, tmpP
	for bi := 0; bi < nb; bi++ {
		var offs [256]int32
		var sum int32
		for v := 0; v < 256; v++ {
			offs[v] = sum
			sum += counts[bi*256+v]
		}
		shift := uint(8 * active[bi])
		if perm == nil {
			for _, k := range srcK {
				d := (k >> shift) & 0xff
				dstK[offs[d]] = k
				offs[d]++
			}
		} else {
			for i, k := range srcK {
				d := (k >> shift) & 0xff
				o := offs[d]
				dstK[o] = k
				dstP[o] = srcP[i]
				offs[d] = o + 1
			}
		}
		srcK, dstK = dstK, srcK
		srcP, dstP = dstP, srcP
	}
	if nb%2 != 0 {
		copy(keys, srcK)
		if perm != nil {
			copy(perm, srcP)
		}
	}
}

// sortPairsByKey stable-sorts pairs in place by key under the resolved
// key order (see sortKeyVals).
func sortPairsByKey[K comparable, V any](pairs []Pair[K, V], shape keyShape[K]) {
	if len(pairs) < 2 {
		return
	}
	keys, vals, _, _ := groupSegs([]bucketSeg[K, V]{{pairs: pairs}}, len(pairs), false, shape, nil, 0)
	for i := range pairs {
		pairs[i] = Pair[K, V]{Key: keys[i], Value: vals[i]}
	}
}

// sortPairs orders output pairs by key for reproducible results.
func sortPairs[K comparable, V any](pairs []Pair[K, V]) {
	sortPairsByKey(pairs, keyShapeOf[K]())
}

// partitionPairs buckets already-materialized pairs by partitionIndex,
// preserving their order within every bucket: PartitionDataset's
// partitioning of a caller's flat slice.
func partitionPairs[K comparable, V any](pairs []Pair[K, V], parts int) [][]Pair[K, V] {
	buckets := make([][]Pair[K, V], parts)
	shape := keyShapeOf[K]()
	for _, p := range pairs {
		idx := shape.partition(p.Key, parts)
		buckets[idx] = append(buckets[idx], p)
	}
	return buckets
}
