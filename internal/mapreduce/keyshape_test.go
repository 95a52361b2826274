package mapreduce

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/vector"
)

// Named integer types over every integer kind, for the table below.
type (
	namedInt     int
	namedInt8    int8
	namedInt16   int16
	namedInt64   int64
	namedUint    uint
	namedUint8   uint8
	namedUint16  uint16
	namedUint32  uint32
	namedUint64  uint64
	namedUintptr uintptr
)

// checkNamedMatchesUnderlying asserts, for one integer kind U and a
// named type N over it, that N keys take exactly the path U keys take:
// same partition for every partition count, same order image, same
// comparator verdicts, same group-sort permutation — and that this
// shared order is the numeric one.
func checkNamedMatchesUnderlying[U cmp.Ordered, N comparable](t *testing.T, name string, edge []U, draw func(*rand.Rand) U, conv func(U) N) {
	t.Run(name, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		vals := slices.Clone(edge)
		for i := 0; i < 200; i++ {
			vals = append(vals, draw(rng))
		}
		vals = append(vals, vals[:20]...) // repeated keys: groups of several values
		us, ns := keyShapeOf[U](), keyShapeOf[N]()
		if us != keyShape[U](ns) {
			t.Fatalf("shape of %T is %+v, of %T is %+v", conv(vals[0]), ns, vals[0], us)
		}
		if us.kind != keyInt && us.kind != keyUint {
			t.Fatalf("%T resolved to kind %d, not an integer kind", vals[0], us.kind)
		}
		uimg, nimg := us.image(), ns.image()
		ucmp, ncmp := us.cmp(), ns.cmp()
		for _, u := range vals {
			n := conv(u)
			for _, r := range []int{1, 2, 3, 7, 16, 1 << 20} {
				if pu, pn := partitionIndex(u, r), partitionIndex(n, r); pu != pn {
					t.Fatalf("partitionIndex(%v, %d): underlying %d, named %d", u, r, pu, pn)
				}
			}
			if uimg(u) != nimg(n) {
				t.Fatalf("key image of %v: underlying %#x, named %#x", u, uimg(u), nimg(n))
			}
			for _, v := range vals[:12] {
				want := cmp.Compare(u, v)
				if got := ucmp(u, v); got != want {
					t.Fatalf("underlying cmp(%v, %v) = %d, want %d", u, v, got, want)
				}
				if got := ncmp(n, conv(v)); got != want {
					t.Fatalf("named cmp(%v, %v) = %d, want %d", u, v, got, want)
				}
			}
		}
		// Group order: the stable sort must produce the same permutation
		// for both spellings, ascending numerically, ties in input order.
		idx := func() []int {
			out := make([]int, len(vals))
			for i := range out {
				out[i] = i
			}
			return out
		}
		nkeys := make([]N, len(vals))
		for i, u := range vals {
			nkeys[i] = conv(u)
		}
		su, pu := groupKeyVals(slices.Clone(vals), idx(), us)
		_, pn := groupKeyVals(nkeys, idx(), ns)
		if !slices.Equal(pu, pn) {
			t.Fatal("group-sort permutation differs between the named type and its underlying type")
		}
		for i := 1; i < len(su); i++ {
			if su[i] < su[i-1] || (su[i] == su[i-1] && pu[i] < pu[i-1]) {
				t.Fatalf("sorted keys out of order or unstable at %d: %v after %v", i, su[i], su[i-1])
			}
		}
	})
}

// TestNamedIntegerKeysTakeTheUnderlyingTypesPath is the property test
// of the typed key path: every integer kind, plain or named (the
// repository's graph.NodeID and vector.TermID included), hashes,
// orders and projects through the same code with the same results.
func TestNamedIntegerKeysTakeTheUnderlyingTypesPath(t *testing.T) {
	signed := func(bits uint) func(*rand.Rand) int64 {
		return func(r *rand.Rand) int64 { return int64(r.Uint64()) >> (64 - bits) }
	}
	unsigned := func(bits uint) func(*rand.Rand) uint64 {
		return func(r *rand.Rand) uint64 { return r.Uint64() >> (64 - bits) }
	}
	i32, i64, u64 := signed(32), signed(64), unsigned(64)
	checkNamedMatchesUnderlying(t, "int8", []int8{math.MinInt8, -1, 0, 1, math.MaxInt8},
		func(r *rand.Rand) int8 { return int8(signed(8)(r)) }, func(u int8) namedInt8 { return namedInt8(u) })
	checkNamedMatchesUnderlying(t, "int16", []int16{math.MinInt16, -1, 0, 1, math.MaxInt16},
		func(r *rand.Rand) int16 { return int16(signed(16)(r)) }, func(u int16) namedInt16 { return namedInt16(u) })
	checkNamedMatchesUnderlying(t, "int32", []int32{math.MinInt32, -1, 0, 1, math.MaxInt32},
		func(r *rand.Rand) int32 { return int32(i32(r)) }, func(u int32) nodeKey { return nodeKey(u) })
	checkNamedMatchesUnderlying(t, "graph.NodeID", []int32{math.MinInt32, -1, 0, 1, math.MaxInt32},
		func(r *rand.Rand) int32 { return int32(i32(r)) }, func(u int32) graph.NodeID { return graph.NodeID(u) })
	checkNamedMatchesUnderlying(t, "vector.TermID", []int32{math.MinInt32, -1, 0, 1, math.MaxInt32},
		func(r *rand.Rand) int32 { return int32(i32(r)) }, func(u int32) vector.TermID { return vector.TermID(u) })
	checkNamedMatchesUnderlying(t, "int64", []int64{math.MinInt64, -1, 0, 1, math.MaxInt64},
		i64, func(u int64) namedInt64 { return namedInt64(u) })
	checkNamedMatchesUnderlying(t, "int", []int{math.MinInt, -1, 0, 1, math.MaxInt},
		func(r *rand.Rand) int { return int(i64(r)) }, func(u int) namedInt { return namedInt(u) })
	checkNamedMatchesUnderlying(t, "uint8", []uint8{0, 1, math.MaxInt8, math.MaxUint8},
		func(r *rand.Rand) uint8 { return uint8(unsigned(8)(r)) }, func(u uint8) namedUint8 { return namedUint8(u) })
	checkNamedMatchesUnderlying(t, "uint16", []uint16{0, 1, math.MaxInt16, math.MaxUint16},
		func(r *rand.Rand) uint16 { return uint16(unsigned(16)(r)) }, func(u uint16) namedUint16 { return namedUint16(u) })
	checkNamedMatchesUnderlying(t, "uint32", []uint32{0, 1, math.MaxInt32, math.MaxUint32},
		func(r *rand.Rand) uint32 { return uint32(unsigned(32)(r)) }, func(u uint32) namedUint32 { return namedUint32(u) })
	checkNamedMatchesUnderlying(t, "uint64", []uint64{0, 1, math.MaxInt64, math.MaxUint64},
		u64, func(u uint64) namedUint64 { return namedUint64(u) })
	checkNamedMatchesUnderlying(t, "uint", []uint{0, 1, math.MaxInt, math.MaxUint},
		func(r *rand.Rand) uint { return uint(u64(r)) }, func(u uint) namedUint { return namedUint(u) })
	checkNamedMatchesUnderlying(t, "uintptr", []uintptr{0, 1, math.MaxInt, math.MaxUint},
		func(r *rand.Rand) uintptr { return uintptr(u64(r)) }, func(u uintptr) namedUintptr { return namedUintptr(u) })
}

// TestPlainKeyHashesUnchanged pins the hashes of the key types that
// already had a typed path before named kinds joined them: only keys
// that used to take the fmt fallback moved partitions in Proto 5.
func TestPlainKeyHashesUnchanged(t *testing.T) {
	fnv1a := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"int", keyShapeOf[int]().hash(-5), mix64(uint64(math.MaxUint64 - 4))},
		{"int32", keyShapeOf[int32]().hash(-5), mix64(uint64(math.MaxUint32 - 4))},
		{"int64", keyShapeOf[int64]().hash(-5), mix64(uint64(math.MaxUint64 - 4))},
		{"uint32", keyShapeOf[uint32]().hash(7), mix64(7)},
		{"uint64", keyShapeOf[uint64]().hash(1 << 40), mix64(1 << 40)},
		{"string", keyShapeOf[string]().hash("node-42"), fnv1a("node-42")},
		{"[2]int32", keyShapeOf[[2]int32]().hash([2]int32{-1, 3}), mix64(uint64(math.MaxUint32)<<32 | 3)},
	} {
		if c.got != c.want {
			t.Errorf("%s: hash %#x, want %#x", c.name, c.got, c.want)
		}
	}
}

// TestPartitionIndexGolden pins where keys land, as literal numbers, one
// or more per key kind. The partitioner is part of the wire format:
// workers of one cluster must agree on a key's partition (remote.Proto).
// A change that moves any of these values must bump remote.Proto in the
// same commit and then update the table — never the table alone.
func TestPartitionIndexGolden(t *testing.T) {
	const big = 1 << 20
	for _, c := range []struct {
		name           string
		mod7, modBig   int
		want7, wantBig int
	}{
		{"int32", partitionIndex(int32(-5), 7), partitionIndex(int32(-5), big), 1, 4093},
		{"int64", partitionIndex(int64(1)<<40, 7), partitionIndex(int64(1)<<40, big), 5, 50057},
		{"int", partitionIndex(123456789, 7), partitionIndex(123456789, big), 5, 751225},
		{"int8", partitionIndex(int8(-128), 7), partitionIndex(int8(-128), big), 2, 1043902},
		{"graph.NodeID", partitionIndex(graph.NodeID(42), 7), partitionIndex(graph.NodeID(42), big), 5, 749205},
		{"uint32", partitionIndex(uint32(4000000000), 7), partitionIndex(uint32(4000000000), big), 5, 276438},
		{"uint64", partitionIndex(uint64(1)<<63, 7), partitionIndex(uint64(1)<<63, big), 6, 652251},
		{"vector.TermID", partitionIndex(vector.TermID(7), 7), partitionIndex(vector.TermID(7), big), 2, 134615},
		{"string", partitionIndex("node-42", 7), partitionIndex("node-42", big), 3, 1027690},
		{"empty string", partitionIndex("", 7), partitionIndex("", big), 2, 140069},
		{"[2]int32", partitionIndex([2]int32{-1, 3}, 7), partitionIndex([2]int32{-1, 3}, big), 2, 440727},
	} {
		if c.mod7 != c.want7 || c.modBig != c.wantBig {
			t.Errorf("%s key: partition %d of 7 and %d of 2^20, pinned %d and %d — the partitioner moved: bump remote.Proto",
				c.name, c.mod7, c.modBig, c.want7, c.wantBig)
		}
	}
}

// TestUnorderedKeyTypesRefused holds the key contract on every backend:
// a job whose intermediate or output key is not an integer, a string or
// [2]int32 is refused with an error naming the type, before its map
// runs or a worker hears of it, and the cluster stays usable.
func TestUnorderedKeyTypesRefused(t *testing.T) {
	cl := startTestCluster(t, 2)
	input := func(cfg Config) *Dataset[int32, int32] { return PartitionDataset(int32Input()[:50], cfg.reducers()) }
	cases := []struct {
		name, typ string
		run       func(cfg Config, calls *atomic.Int64) error
	}{
		{"float64 intermediate", "float64", func(cfg Config, calls *atomic.Int64) error {
			_, _, err := RunDS(context.Background(), cfg, input(cfg),
				func(k, v int32, out Emitter[float64, int32]) error {
					calls.Add(1)
					out.Emit(float64(k), v)
					return nil
				},
				func(k float64, vs []int32, out Emitter[int32, int32]) error { return nil })
			return err
		}},
		{"float64 output", "float64", func(cfg Config, calls *atomic.Int64) error {
			_, _, err := RunDS(context.Background(), cfg, input(cfg),
				func(k, v int32, out Emitter[int32, int32]) error {
					calls.Add(1)
					out.Emit(k, v)
					return nil
				},
				func(k int32, vs []int32, out Emitter[float64, int32]) error { return nil })
			return err
		}},
		{"struct intermediate", "mapreduce.badKey", func(cfg Config, calls *atomic.Int64) error {
			_, _, err := RunDS(context.Background(), cfg, input(cfg),
				func(k, v int32, out Emitter[badKey, int32]) error {
					calls.Add(1)
					out.Emit(badKey{A: fmt.Sprint(k)}, v)
					return nil
				},
				func(k badKey, vs []int32, out Emitter[int32, int32]) error { return nil })
			return err
		}},
		{"float64 state output", "float64", func(cfg Config, calls *atomic.Int64) error {
			_, _, err := RunStateDS(context.Background(), cfg, input(cfg),
				func(k, v int32, out Emitter[int32, int32]) error {
					calls.Add(1)
					return nil
				},
				func(k int32, s *int32, vs []int32, out Emitter[float64, int32]) error { return nil })
			return err
		}},
		{"struct built dataset", "mapreduce.badKey", func(cfg Config, calls *atomic.Int64) error {
			_, err := BuildDS(NewDriver(cfg), "no-such-build", nil, func(int, func(badKey) bool) []Pair[badKey, int32] {
				calls.Add(1)
				return nil
			})
			return err
		}},
	}
	backends := []struct {
		name string
		cfg  Config
	}{
		{"memory", Config{Mappers: 4, Reducers: 3}},
		{"spill", spillCfg(64)},
		{"dist2", distCfg(cl, "refused")},
	}
	for _, b := range backends {
		for _, c := range cases {
			var calls atomic.Int64
			err := c.run(b.cfg, &calls)
			if err == nil || !strings.Contains(err.Error(), "key type "+c.typ+" is refused") || !strings.Contains(err.Error(), "[2]int32") {
				t.Errorf("%s, %s: err = %v, want a refusal naming %s", b.name, c.name, err, c.typ)
			}
			if n := calls.Load(); n != 0 {
				t.Errorf("%s, %s: the map or build ran %d times before the refusal", b.name, c.name, n)
			}
		}
	}
	// The refused jobs left the cluster as they found it.
	run := func(cfg Config) []Pair[int32, int64] {
		out, _, err := Run(context.Background(), cfg, int32Input(), int32Map, int32Reduce)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if mem, dist := run(Config{Mappers: 4, Reducers: 4}), run(distCfg4(cl, "eq-int32")); !reflect.DeepEqual(mem, dist) {
		t.Fatal("the cluster diverges from memory on an int32 job after the refusals")
	}

	// PartitionDataset has no error to return: it panics with the refusal.
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "key type float64 is refused") {
			t.Fatalf("PartitionDataset[float64] panicked with %v, want the refusal", r)
		}
	}()
	PartitionDataset([]Pair[float64, int32]{P(0.5, int32(1))}, 2)
}
