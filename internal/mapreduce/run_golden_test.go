package mapreduce

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestRunGolden pins what Run returns — the exact output slice and the
// record counters of its Stats — for three jobs whose results depend on
// everything Run promises about its input: the caller's slice is cut
// into Config.Mappers contiguous splits in the order given (never
// sorted, never re-cut), values reach a reduce in (split, emission)
// order, and the output comes back flattened and key-sorted. The inputs
// are unsorted with duplicate keys, Mappers != Reducers, and the same
// literals must hold on the memory backend, on a spill budget small
// enough to overflow, and on two loopback dist workers. If this fails,
// Run's dataflow moved — do not edit the literals.
func TestRunGolden(t *testing.T) {
	registerRunGoldenJobs()
	cl := startTestCluster(t, 2)
	backends := []struct {
		name    string
		shuffle ShuffleConfig
		dist    *DistCluster
	}{
		{"memory", ShuffleConfig{}, nil},
		{"spill", ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: 192}, nil},
		{"dist", ShuffleConfig{Backend: ShuffleDist}, cl},
	}
	jobs := []struct {
		name  string
		run   func(cfg Config) (string, *Stats, error)
		head  string // the first three output pairs
		sum   string // SHA-256 of the whole rendered output
		stats goldenCounters
	}{
		{
			name: "golden-collect",
			run: func(cfg Config) (string, *Stats, error) {
				out, st, err := Run(context.Background(), cfg, goldenCollectInput(), goldenCollectMap, goldenCollectReduce)
				return renderPairs(out, func(v int64s) string { return fmt.Sprint(v) }), st, err
			},
			head: "0=[-12 14 -35 37 -58 60 -81 83 -104 106 -127 129 -150 152 -173 175 -196 198 -219 221 -242 244 -265 267 -288 290 -311 313 -334 336 -357 359 -380 382]\n" +
				"1=[-17 19 -40 42 -63 65 -86 88 -109 111 -132 134 -155 157 -178 180 -201 203 -224 226 -247 249 -270 272 -293 295 -316 318 -339 341 -362 364 -385 387]\n" +
				"2=[1 -22 24 -45 47 -68 70 -91 93 -114 116 -137 139 -160 162 -183 185 -206 208 -229 231 -252 254 -275 277 -298 300 -321 323 -344 346 -367 369 -390 392]\n",
			sum:   "194ac7f374ee2ce69a9b8ba7e835233220f89be0ba28a707db18f767ec9ba9e2",
			stats: goldenCounters{in: 400, mapOut: 800, shuffle: 800, groups: 23, out: 23, cross: 800},
		},
		{
			name: "golden-fsum",
			run: func(cfg Config) (string, *Stats, error) {
				out, st, err := Run(context.Background(), cfg, goldenFsumInput(), goldenFsumMap, goldenFsumReduce)
				return renderPairs(out, func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }), st, err
			},
			head: "all=417f74393c8263ac\n" +
				"w00=413d4fcc6f34d6a1\n" +
				"w01=4140eef1e2d42c3d\n",
			sum:   "29d62313cfed54bd0d89f53b48dc8a9dcf4742cf6871d4433b4cefbda9f1ec37",
			stats: goldenCounters{in: 400, mapOut: 800, shuffle: 800, groups: 18, out: 18, cross: 800},
		},
		{
			name: "golden-rekey",
			run: func(cfg Config) (string, *Stats, error) {
				out, st, err := Run(context.Background(), cfg, goldenRekeyInput(), goldenRekeyMap, goldenRekeyReduce)
				return renderPairs(out, func(v int64) string { return fmt.Sprint(v) }), st, err
			},
			head: "g00=893481070339960077\n" +
				"g01=3432192101409384535\n" +
				"g02=-7652307797663286547\n",
			sum:   "62bcbfaa5938db5622c13c8d11cdd42e501d32dc2712f0d4272200d8d16c9142",
			stats: goldenCounters{in: 400, mapOut: 400, shuffle: 400, groups: 13, out: 26, cross: 400},
		},
	}
	for _, b := range backends {
		for _, job := range jobs {
			t.Run(b.name+"/"+job.name, func(t *testing.T) {
				cfg := Config{Mappers: 5, Reducers: 3, Name: job.name, Shuffle: b.shuffle, Dist: b.dist}
				got, st, err := job.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if head := firstLines(got, 3); head != job.head {
					t.Errorf("first output pairs:\n%swant:\n%s", head, job.head)
				}
				if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != job.sum {
					t.Errorf("output digest %s, want %s", sum, job.sum)
				}
				counters := goldenCounters{
					in: st.MapInputRecords, mapOut: st.MapOutputRecords, shuffle: st.ShuffleRecords,
					groups: st.ReduceGroups, out: st.ReduceOutputRecords,
					local: st.LocalRouted, cross: st.CrossRouted,
				}
				if counters != job.stats {
					t.Errorf("stats counters %+v, want %+v", counters, job.stats)
				}
				if b.name == "spill" && st.SpilledRecords == 0 {
					t.Error("the spill budget did not overflow: nothing was spilled")
				}
			})
		}
	}
}

// goldenCounters are the Stats fields TestRunGolden pins.
type goldenCounters struct {
	in, mapOut, shuffle, groups, out, local, cross int64
}

// renderPairs prints one "key=value" line per output pair, in output
// order.
func renderPairs[K comparable, V any](pairs []Pair[K, V], value func(V) string) string {
	var sb strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&sb, "%v=%s\n", p.Key, value(p.Value))
	}
	return sb.String()
}

// firstLines returns the first n lines of s, newlines included.
func firstLines(s string, n int) string {
	end := 0
	for ; n > 0; n-- {
		i := strings.IndexByte(s[end:], '\n')
		if i < 0 {
			return s
		}
		end += i + 1
	}
	return s[:end]
}

// registerRunGoldenJobs registers the three jobs' maps and reduces for
// the in-process dist workers, which map the placed input.
func registerRunGoldenJobs() {
	RegisterDistMapReduce("golden-collect", goldenCollectMap, goldenCollectReduce)
	RegisterDistMapReduce("golden-fsum", goldenFsumMap, goldenFsumReduce)
	RegisterDistMapReduce("golden-rekey", goldenRekeyMap, goldenRekeyReduce)
}

const goldenN = 400

// goldenCollectInput is unsorted and repeats each of its 23 keys: a Run
// that sorted it, or cut it anywhere but at Mappers contiguous spans,
// would hand goldenCollectReduce its values in another order.
func goldenCollectInput() []Pair[int32, int64] {
	input := make([]Pair[int32, int64], goldenN)
	for i := range input {
		input[i] = P(int32((i*37+11)%23), int64(i))
	}
	return input
}

func goldenCollectMap(k int32, v int64, out Emitter[int32, int64]) error {
	out.Emit(k, v)
	out.Emit((k+5)%23, -v)
	return nil
}

// goldenCollectReduce is gatherReduce with a value the dist backend
// can ship: a slice has no lane, int64s encodes itself.
func goldenCollectReduce(k int32, vs []int64, out Emitter[int32, int64s]) error {
	out.Emit(k, int64s(slices.Clone(vs)))
	return nil
}

// goldenFsumInput spreads its values over nine decades, so the bits of
// a key's float sum depend on the order the addends arrive in.
func goldenFsumInput() []Pair[string, float64] {
	scale := [9]float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4}
	input := make([]Pair[string, float64], goldenN)
	for i := range input {
		input[i] = P(fmt.Sprintf("w%02d", (i*29)%17), float64(i+1)/3*scale[i%9])
	}
	return input
}

func goldenFsumMap(k string, v float64, out Emitter[string, float64]) error {
	out.Emit(k, v)
	out.Emit("all", v)
	return nil
}

func goldenFsumReduce(k string, vs []float64, out Emitter[string, float64]) error {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	out.Emit(k, sum)
	return nil
}

func goldenRekeyInput() []Pair[int64, int32] {
	input := make([]Pair[int64, int32], goldenN)
	for i := range input {
		input[i] = P(int64((i*7)%401), int32(i))
	}
	return input
}

func goldenRekeyMap(k int64, v int32, out Emitter[int32, int64]) error {
	out.Emit(int32(k%13), int64(v)+k)
	return nil
}

// goldenRekeyReduce changes the key type (int32 groups, string output)
// and folds its values order-sensitively.
func goldenRekeyReduce(k int32, vs []int64, out Emitter[string, int64]) error {
	var acc int64
	for _, v := range vs {
		acc = acc*31 + v
	}
	out.Emit(fmt.Sprintf("g%02d", k), acc)
	out.Emit(fmt.Sprintf("n%02d", k), int64(len(vs)))
	return nil
}
