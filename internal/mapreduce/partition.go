package mapreduce

import (
	"cmp"
	"fmt"
	"math/bits"
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

// flip returns the bit that makes an integer key's bits order as
// unsigned: a signed kind's sign bit, 0 for an unsigned kind.
func (s keyShape[K]) flip() uint64 {
	if s.kind == keyInt {
		return 1 << (8*s.size - 1)
	}
	return 0
}

// cmp returns the three-way comparator realizing the key order the
// group sort produces: integer kinds compare their sign-flipped bits,
// [2]int32 its first component and then its second, both signed, and
// string kinds compare as strings. It returns 0 exactly when a == b.
func (s keyShape[K]) cmp() func(a, b K) int {
	switch s.kind {
	case keyInt, keyUint:
		flip := s.flip()
		return func(a, b K) int { return cmp.Compare(s.bits(a)^flip, s.bits(b)^flip) }
	case keyEdge:
		return func(a, b K) int {
			x, y := s.edge(a), s.edge(b)
			if c := cmp.Compare(x[0], y[0]); c != 0 {
				return c
			}
			return cmp.Compare(x[1], y[1])
		}
	}
	return func(a, b K) int { return strings.Compare(s.str(a), s.str(b)) }
}

// radixScratch holds the counting histograms of scatterInts. A zero
// value is ready to use; the buffer grows to the largest sort seen and
// is reused across calls, so a steady-state round loop performs no
// sort-scratch allocation.
type radixScratch struct {
	counts []int32 // histograms (cleared per pass)
}

// growI32 returns a slice of length n, reusing buf's storage when it is
// large enough.
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
// tagged, a third array holding each record's split. This order is the
// engine's value-order contract: within one key, values run split
// ascending, then in emission order.
//
// Integer keys of any width take scatterInts: counting scatters straight
// out of the buckets into the sorted arrays, one pass for a narrow range
// and an LSD pass per digit of at most 11 bits otherwise. [2]int32 keys
// and strings, which no hot job groups, are gathered split-major and
// sorted by comparison (sortByKey).
//
// The buckets go back to ar and segs is left empty of references. The
// returned arrays are checked out of ar when one is set; the caller owns
// returning them. n == 0 returns nil arrays.
func groupSegs[K comparable, V any](
	segs []bucketSeg[K, V], n int, tagged bool, shape keyShape[K],
	ar *roundArena[K, V], part int,
) ([]K, []V, []int32) {
	splitMajor(segs)
	defer func() {
		for _, seg := range segs {
			ar.putBucket(part, seg.pairs)
		}
		clear(segs)
	}()
	if n == 0 {
		return nil, nil, nil
	}
	if shape.kind == keyInt || shape.kind == keyUint {
		return scatterInts(segs, n, tagged, shape, ar, part)
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
		return keys, vals, splits // nothing to sort
	}
	outK, outV, outS := sortByKey(keys, vals, splits, shape, ar, part)
	ar.putKeys(part, keys)
	ar.putVals(part, vals)
	ar.putI32(part, splits)
	return outK, outV, outS
}

// maxDigitBits bounds a digit of scatterInts' multi-pass sort: 2^11
// int32 counters (8 KiB) per digit stay in the L1 cache.
const maxDigitBits = 11

// scatterInts groups integer keys of any width by counting, as the
// payload-scatter radix partitioning of Polychroniou & Ross (SIGMOD
// 2014) does. Each key is read as x = bits^flip - lo, its offset from
// the smallest key in the unsigned order of its sign-flipped bits. One
// sweep finds the range; one counts every digit of x; a first pass
// scatters every record's key, value and (when tagged) split straight
// from the buckets to its slot by the lowest digit. A narrow range — at
// most 2^16 distinct values between the smallest and the largest key,
// and at most 4 per record — is one digit, so that first pass is the
// whole sort. Any other range is cut into as few digits of at most
// maxDigitBits as it needs, and each later digit is an LSD pass that
// ping-pongs through one spare key/value/split set from ar, ordered so
// that the last pass lands in the returned arrays.
//
// Buckets are read split-major and every pass is stable, so equal keys
// keep (split, arrival) order. Working memory beyond the outputs is the
// histograms, from the radix scratch, and the spare set when there is
// more than one digit: an 8-byte message (an int32 key and value) costs
// 8 B of it for a narrow range and 16 B for a wide one.
func scatterInts[K comparable, V any](
	segs []bucketSeg[K, V], n int, tagged bool, shape keyShape[K],
	ar *roundArena[K, V], part int,
) (keys []K, vals []V, splits []int32) {
	flip := shape.flip()
	lo, hi := ^uint64(0), uint64(0)
	for _, seg := range segs {
		for _, p := range seg.pairs {
			x := shape.bits(p.Key) ^ flip
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	span := hi - lo
	width := bits.Len64(span)      // of the range, then of one digit
	passes, size := 1, int(span)+1 // a narrow range is counted exactly
	if span >= 1<<16 || span >= 4*uint64(n) {
		passes = (width + maxDigitBits - 1) / maxDigitBits
		width = (width + passes - 1) / passes
		size = 1 << width
	}
	mask := uint64(1)<<width - 1
	rs := ar.getRadix(part)
	defer ar.putRadix(part, rs)
	counts := rs.histogram(passes * size)
	for _, seg := range segs {
		for _, p := range seg.pairs {
			x := shape.bits(p.Key) ^ flip - lo
			if passes == 1 {
				counts[x]++
				continue
			}
			for d := range passes {
				counts[d*size+int(x>>uint(d*width)&mask)]++
			}
		}
	}
	for d := range passes {
		h := counts[d*size : (d+1)*size]
		var sum int32
		for i, c := range h {
			h[i] = sum
			sum += c
		}
	}
	keys, vals = ar.getKeys(part, n), ar.getVals(part, n)
	if tagged {
		splits = ar.getI32(part, n)
	}
	// Every pass writes set a; before each later pass the sets swap, so
	// it reads the previous pass's output from b. The first pass writes
	// the spare set when an odd number of passes follow it, so that the
	// last one lands in keys, vals and splits.
	aK, aV, aS := keys, vals, splits
	var bK []K
	var bV []V
	var bS []int32
	if passes > 1 {
		spareK, spareV := ar.getKeys(part, n), ar.getVals(part, n)
		var spareS []int32
		if tagged {
			spareS = ar.getI32(part, n)
		}
		defer ar.putKeys(part, spareK)
		defer ar.putVals(part, spareV)
		defer ar.putI32(part, spareS)
		bK, bV, bS = spareK, spareV, spareS
		if passes%2 == 0 {
			aK, aV, aS, bK, bV, bS = bK, bV, bS, aK, aV, aS
		}
	}
	for _, seg := range segs {
		for _, p := range seg.pairs {
			dg := (shape.bits(p.Key) ^ flip - lo) & mask
			o := counts[dg]
			aK[o], aV[o] = p.Key, p.Value
			if tagged {
				aS[o] = seg.split
			}
			counts[dg] = o + 1
		}
	}
	for d := 1; d < passes; d++ {
		aK, aV, aS, bK, bV, bS = bK, bV, bS, aK, aV, aS
		sh, h := uint(d*width), counts[d*size:]
		for i, k := range bK {
			dg := (shape.bits(k) ^ flip - lo) >> sh & mask
			o := h[dg]
			aK[o], aV[o] = k, bV[i]
			if tagged {
				aS[o] = bS[i]
			}
			h[dg] = o + 1
		}
	}
	return keys, vals, splits
}

// sortByKey is the comparison sort, for the keys the counting scatter
// does not take: [2]int32 and strings. It sorts the indexes of the
// parallel keys and vals (and tags, each record's split, when non-nil)
// by key under shape's comparator, the index breaking ties, and gathers
// the outputs through that permutation. The inputs are gathered
// split-major in arrival order, so the index tiebreak keeps (key, split,
// arrival) order — the engine's value-order contract — with an unstable
// sort. Indexes are int32: one partition's in-memory pairs can't
// meaningfully exceed 2^31 records (that's already >16 GiB of Pair
// headers).
//
// The returned slices are checked out of ar when one is set — the
// caller owns returning them — while the permutation goes back here.
// The inputs are pure scratch after the call, and the caller returns
// those too.
func sortByKey[K comparable, V any](
	keys []K, vals []V, tags []int32, shape keyShape[K], ar *roundArena[K, V], part int,
) (outK []K, outV []V, outT []int32) {
	n := len(keys)
	order := shape.cmp()
	perm := ar.getI32(part, n)
	defer ar.putI32(part, perm)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := order(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	outK, outV = ar.getKeys(part, n), ar.getVals(part, n)
	for i, p := range perm {
		outK[i], outV[i] = keys[p], vals[p]
	}
	if tags != nil {
		outT = ar.getI32(part, n)
		for i, p := range perm {
			outT[i] = tags[p]
		}
	}
	return outK, outV, outT
}

// sortPairsByKey stable-sorts pairs in place by key under the resolved
// key order (see groupSegs).
func sortPairsByKey[K comparable, V any](pairs []Pair[K, V], shape keyShape[K]) {
	if len(pairs) < 2 {
		return
	}
	keys, vals, _ := groupSegs([]bucketSeg[K, V]{{pairs: pairs}}, len(pairs), false, shape, nil, 0)
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
