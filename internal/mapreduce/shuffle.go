package mapreduce

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/extsort"
)

// This file defines the engine's pluggable shuffle. The shuffle is the
// phase between map and reduce: it partitions intermediate pairs by key
// hash, groups the pairs of each partition by key, and serves the groups
// to the reduce tasks in sorted key order. The paper (Section 3.1) calls
// the shuffle the dominant cost of any MapReduce implementation, and the
// engine keeps every part of it parallel: partitioning happens map-side
// (each map task routes pairs into per-reducer buckets as it emits
// them), and grouping happens reduce-side (each reduce task sorts its
// own partition), so no phase funnels the whole intermediate dataset
// through one goroutine. The spilling backend additionally bounds memory
// by writing sorted runs to disk through internal/extsort, exactly as
// Hadoop's map-side spill does.

// ShuffleKind names a shuffle backend in Config.
type ShuffleKind string

const (
	// ShuffleMemory keeps every intermediate pair in memory and groups
	// each partition with a reduce-side sort (the default; fastest
	// while the job fits in RAM).
	ShuffleMemory ShuffleKind = "memory"
	// ShuffleSpill bounds memory: once the configured budget of
	// buffered records fills, sorted runs are spilled to disk and
	// merge-streamed back to the reducers.
	ShuffleSpill ShuffleKind = "spill"
	// ShuffleDist shards the reduce partitions across the worker
	// processes of Config.Dist: map-side buckets stream to each
	// partition's owner over TCP, the workers group-sort and reduce
	// locally, and the output either streams back (Run) or stays
	// worker-resident between chained jobs (RunDS). Output is
	// bit-identical to ShuffleMemory for the same seed and partition
	// count. See dist.go and distworker.go.
	ShuffleDist ShuffleKind = "dist"
)

// ShuffleConfig selects and bounds the shuffle backend of a job.
type ShuffleConfig struct {
	// Backend selects the implementation. Empty means ShuffleMemory.
	Backend ShuffleKind
	// MemoryBudget is the maximum number of intermediate records the
	// spilling backend buffers in memory across all partitions before
	// writing a sorted run to disk (default 1<<20). Ignored by the
	// memory backend. The pipelined run writer double-buffers, so a
	// partition's peak can transiently reach twice its budget share
	// while a run is being written (see extsort.Config.MaxInMemory).
	MemoryBudget int
	// TempDir is the directory for spill files (default os.TempDir()).
	TempDir string
}

func (c ShuffleConfig) kind() ShuffleKind {
	if c.Backend == "" {
		return ShuffleMemory
	}
	return c.Backend
}

func (c ShuffleConfig) memoryBudget() int {
	if c.MemoryBudget > 0 {
		return c.MemoryBudget
	}
	return 1 << 20
}

// ShuffleBackend is the engine's shuffle contract. A backend instance
// serves exactly one job: map tasks feed it pre-partitioned bucket
// segments with AddBucket, Finalize seals ingestion and exposes one
// group stream per reduce partition, and Close releases any remaining
// resources.
//
// Partitioning contract: the emitter routes every pair into the bucket
// partitionIndex(key, Partitions()) as it is produced (map-side
// partitioning, parallel across map tasks), so backends never hash a
// key. A delivered bucket is owned by the backend — the emitter never
// touches it again — so in-memory backends retain the slices as-is,
// with zero copies.
//
// Ordering contract: one split's buckets arrive through one goroutine,
// and the buckets of one (split, partition) pair arrive in emission
// order, each internally in emission order; distinct splits add
// concurrently. Backends must group values per key in global emission
// order — split index ascending, then emission order within the split —
// and must stream groups in ascending key order within a partition,
// because job determinism rests on both properties.
type ShuffleBackend[K comparable, V any] interface {
	// Partitions returns the number of reduce partitions; AddBucket
	// partition indexes run 0..Partitions()-1.
	Partitions() int
	// AddBucket ingests one bucket of intermediate pairs emitted by
	// map split `split` for partition `part`, taking ownership of the
	// slice.
	AddBucket(split, part int, pairs []Pair[K, V]) error
	// BucketCap is the number of pairs the emitter should collect in a
	// partition bucket before handing it over; zero lets the engine
	// pick. Bounded caps let a spilling backend start writing runs
	// long before a split finishes.
	BucketCap() int
	// Finalize seals ingestion and returns one GroupStream per reduce
	// partition. With pre-partitioned input this is cheap bookkeeping
	// (collecting bucket slice headers, or sealing sorters); the
	// per-partition grouping work runs inside the reduce tasks.
	Finalize() ([]GroupStream[K, V], error)
	// Close releases backend resources. Safe after Finalize and on
	// error paths; streams already handed out remain independently
	// closable.
	Close() error
}

// GroupStream iterates the key groups of one reduce partition in sorted
// key order. It is used by a single reduce task.
type GroupStream[K comparable, V any] interface {
	// Next returns the next key group; ok is false at the end.
	Next() (key K, values []V, ok bool, err error)
	// Close releases the stream's resources (idempotent).
	Close() error
}

// newShuffleBackend constructs the backend selected by cfg for a job
// with the given number of map splits. ar is the job's recycler arena
// for the intermediate pair type (nil disables recycling).
func newShuffleBackend[K comparable, V any](cfg Config, splits int, ar *roundArena[K, V]) (ShuffleBackend[K, V], error) {
	switch cfg.Shuffle.kind() {
	case ShuffleMemory:
		return newMemoryShuffle[K, V](cfg.reducers(), splits, ar), nil
	case ShuffleSpill:
		return newSpillShuffle[K, V](cfg.reducers(), splits, cfg.Shuffle, cfg.SpillCompression, ar)
	case ShuffleDist:
		// Run/RunDS intercept the dist mode before reaching the backend
		// constructor; only the combiner paths arrive here.
		return nil, fmt.Errorf("mapreduce: the dist shuffle backend does not support combiner jobs")
	default:
		return nil, fmt.Errorf("mapreduce: unknown shuffle backend %q", cfg.Shuffle.Backend)
	}
}

// shuffleFootprint reports what a backend moved, for job Stats.
type shuffleFootprint interface {
	footprint() (records, spilled, runs int64)
}

// ---------------------------------------------------------------------
// In-memory backend: pre-partitioned bucket segments are retained as-is
// (ownership transfer, zero copies). Finalize only collects each
// partition's segment slice headers in split order; the actual grouping —
// a stable sort by key that preserves (split, emission) value order — is
// deferred into the group stream, which runs inside the reduce task's
// goroutine, so partitions group in parallel on all cores.

type memoryShuffle[K comparable, V any] struct {
	reducers int
	shape    keyShape[K]
	cmp      func(a, b K) int
	ar       *roundArena[K, V]
	// segs[split][partition] lists the split's delivered buckets for
	// that partition, in arrival (= emission) order.
	segs    [][][][]Pair[K, V]
	records int64
}

func newMemoryShuffle[K comparable, V any](reducers, splits int, ar *roundArena[K, V]) *memoryShuffle[K, V] {
	shape := keyShapeOf[K]()
	return &memoryShuffle[K, V]{
		reducers: reducers,
		shape:    shape,
		cmp:      shape.cmp(),
		ar:       ar,
		segs:     make([][][][]Pair[K, V], splits),
	}
}

func (m *memoryShuffle[K, V]) Partitions() int { return m.reducers }

func (m *memoryShuffle[K, V]) BucketCap() int { return 0 }

func (m *memoryShuffle[K, V]) AddBucket(split, part int, pairs []Pair[K, V]) error {
	// Each split writes only its own index, so concurrent AddBuckets
	// from distinct splits need no lock.
	if m.segs[split] == nil {
		m.segs[split] = make([][][]Pair[K, V], m.reducers)
	}
	m.segs[split][part] = append(m.segs[split][part], pairs)
	return nil
}

func (m *memoryShuffle[K, V]) Finalize() ([]GroupStream[K, V], error) {
	streams := make([]GroupStream[K, V], m.reducers)
	for p := range streams {
		var segs [][]Pair[K, V]
		for _, bySplit := range m.segs {
			if bySplit == nil {
				continue
			}
			for _, seg := range bySplit[p] {
				segs = append(segs, seg)
				m.records += int64(len(seg))
			}
		}
		streams[p] = &memGroupStream[K, V]{segs: segs, shape: m.shape, cmp: m.cmp, ar: m.ar, part: p}
	}
	m.segs = nil
	return streams, nil
}

func (m *memoryShuffle[K, V]) Close() error { m.segs = nil; return nil }

func (m *memoryShuffle[K, V]) footprint() (records, spilled, runs int64) {
	return m.records, 0, 0
}

// memGroup is one grouped key, used only on the comparator-tie slow path.
type memGroup[K comparable, V any] struct {
	key  K
	vals []V
}

// memGroupStream serves one partition's key groups. The first Next call
// — inside the reduce task's goroutine, so partitions group in parallel
// — concatenates the pre-partitioned split segments (emission order
// within a split, splits ascending), computes the stable sort-by-key
// permutation (a comparator-free radix pass, see sortKeyVals), and
// gathers the keys and values once into two flat arrays. Every group is
// then a zero-copy sub-slice of the values array: no per-key map, no
// per-key grown slices.
//
// With a recycler arena attached, the stream is where round-lifetime
// buffers cycle: prime checks the gather arrays and radix scratch out
// of the arena and returns them (plus the consumed bucket segments) as
// soon as the sort is done, and Close — the moment the round's groups
// have been consumed — returns the sorted key, value, and key-image
// arrays, so the next round's stream for this partition reuses them.
type memGroupStream[K comparable, V any] struct {
	segs   [][]Pair[K, V]
	shape  keyShape[K]
	cmp    func(a, b K) int
	ar     *roundArena[K, V]
	part   int
	keys   []K
	vals   []V
	run    sortedRun
	pos    int
	primed bool
	queue  []memGroup[K, V] // pending groups from a comparator-tie run
}

func (s *memGroupStream[K, V]) prime() {
	s.primed = true
	total := 0
	for _, seg := range s.segs {
		total += len(seg)
	}
	if total == 0 {
		s.segs = nil
		return
	}
	keys := s.ar.getKeys(s.part, total)
	vals := s.ar.getVals(s.part, total)
	i := 0
	for _, seg := range s.segs {
		for _, p := range seg {
			keys[i] = p.Key
			vals[i] = p.Value
			i++
		}
	}
	// The bucket segments are dead once copied out: hand them back for
	// the next round's emitters.
	for _, seg := range s.segs {
		s.ar.putBucket(s.part, seg)
	}
	s.segs = nil
	rs := s.ar.getRadix(s.part)
	s.keys, s.vals, s.run = sortKeyVals(keys, vals, s.shape, s.ar, s.part, rs)
	s.ar.putRadix(s.part, rs)
	if total >= 2 {
		// The gather arrays were consumed as sort scratch (length < 2
		// inputs pass through unchanged and are still live).
		s.ar.putKeys(s.part, keys)
		s.ar.putVals(s.part, vals)
	}
}

func (s *memGroupStream[K, V]) Next() (K, []V, bool, error) {
	if !s.primed {
		s.prime()
	}
	if len(s.queue) > 0 {
		g := s.queue[0]
		s.queue = s.queue[1:]
		return g.key, g.vals, true, nil
	}
	n := len(s.keys)
	if s.pos >= n {
		var zero K
		return zero, nil, false, nil
	}
	pos := s.pos
	key := s.keys[pos]
	end := pos + 1
	if ord := s.run.ord; ord != nil {
		// Boundary scan over the sorted key images: comparing machine
		// words instead of keys. With an exact projection an image
		// change IS a key change; otherwise equal images narrow the
		// test to a key-equality check, and distinct keys sharing an
		// image are contiguous (the sort's repair pass ordered them),
		// so a key change within equal images still ends the group —
		// unless the comparator cannot tell the keys apart (fmt
		// fallback collisions), which the tie path below regroups.
		sh := s.run.shift
		o := ord[pos] >> sh
		if s.run.exact {
			for end < n && ord[end]>>sh == o {
				end++
			}
			s.pos = end
			return key, s.vals[pos:end], true, nil
		}
		for end < n && ord[end]>>sh == o && s.keys[end] == key {
			end++
		}
		if end < n && ord[end]>>sh == o && s.cmp(key, s.keys[end]) == 0 {
			return s.tieRun(pos, end)
		}
		s.pos = end
		return key, s.vals[pos:end], true, nil
	}
	for end < n && s.keys[end] == key {
		end++
	}
	if end < n && s.cmp(key, s.keys[end]) == 0 {
		return s.tieRun(pos, end)
	}
	s.pos = end
	return key, s.vals[pos:end], true, nil
}

// tieRun handles the comparator-tie slow path: the comparator ties but
// Go equality disagrees (a composite key whose fmt fallback collides,
// or a NaN key), so pairs of distinct keys may interleave and the
// contiguous-slice fast path does not apply. The whole run is regrouped
// by Go equality, preserving first-seen key order and per-key value
// order.
func (s *memGroupStream[K, V]) tieRun(pos, end int) (K, []V, bool, error) {
	key := s.keys[pos]
	runEnd := end + 1
	for runEnd < len(s.keys) && s.cmp(key, s.keys[runEnd]) == 0 {
		runEnd++
	}
	s.queue = groupTieRun(s.keys[pos:runEnd], s.vals[pos:runEnd])
	s.pos = runEnd
	g := s.queue[0]
	s.queue = s.queue[1:]
	return g.key, g.vals, true, nil
}

// groupTieRun splits a run of comparator-equal pairs into per-key groups
// by Go equality, in first-occurrence order, copying the values (the run
// may interleave keys, so zero-copy slicing of the input does not
// apply). Instead of growing one slice per distinct key — a singleton
// allocation plus O(log) growth re-allocations per group in the worst
// case — the group boundaries are counted first and the values are
// carved as sub-slices of one flat array laid out group by group.
//
// The linear key scan deliberately avoids a map: NaN keys never compare
// equal, so each NaN pair forms its own group — the same behavior a Go
// map's insert semantics gave the seed engine. Tie runs exist only for
// keys without a distinguishing total order and are short in practice.
func groupTieRun[K comparable, V any](keys []K, vals []V) []memGroup[K, V] {
	// Pass 1: assign each pair to its group and count group sizes.
	var groups []memGroup[K, V]
	gidx := make([]int32, len(keys))
	counts := make([]int32, 0, 8)
outer:
	for i, k := range keys {
		for gi := range groups {
			if groups[gi].key == k {
				gidx[i] = int32(gi)
				counts[gi]++
				continue outer
			}
		}
		gidx[i] = int32(len(groups))
		groups = append(groups, memGroup[K, V]{key: k})
		counts = append(counts, 1)
	}
	// Pass 2: carve one region per group out of a single flat array and
	// scatter the values into their regions in input order.
	flat := make([]V, len(vals))
	off := int32(0)
	for gi := range groups {
		groups[gi].vals = flat[off : off : off+counts[gi]]
		off += counts[gi]
	}
	for i, v := range vals {
		gi := gidx[i]
		groups[gi].vals = append(groups[gi].vals, v)
	}
	return groups
}

func (s *memGroupStream[K, V]) Close() error {
	// The round's groups have been consumed: the sorted key, value, and
	// key-image arrays return to the arena for the next round.
	s.ar.putKeys(s.part, s.keys)
	s.ar.putVals(s.part, s.vals)
	s.ar.putU64(s.part, s.run.ord)
	s.segs, s.keys, s.vals, s.queue = nil, nil, nil, nil
	s.run = sortedRun{}
	s.pos = 0
	return nil
}

// ---------------------------------------------------------------------
// Spilling backend: external-memory shuffle over internal/extsort. Every
// partition owns a Sorter ordering records by (key, sequence); once the
// per-partition share of the memory budget fills, the sorter writes a
// sorted run to disk. Finalize turns each sorter into a k-way merge
// iterator and the group streams assemble key groups from the merged
// record stream, so a partition's peak memory is one run buffer plus its
// largest single key group — never the whole shuffle volume.

// spillRec is one intermediate pair with its global sequence number,
// which encodes (split, arrival index) so that the merge reproduces the
// memory backend's deterministic value order within every key. img
// caches the key's order-consistent uint64 image (see keyShape.image),
// computed once per record at ingest and at decode — never serialized —
// so both the run-buffer radix sort and the k-way merge compare machine
// words instead of repeatedly projecting (or boxing) the key.
type spillRec[K comparable, V any] struct {
	seq uint64
	img uint64
	key K
	val V
}

// seqSplitShift packs the split index into the high bits of a sequence
// number; 2^40 emitted pairs per split is far beyond what fits a task.
const seqSplitShift = 40

type spillShuffle[K comparable, V any] struct {
	reducers int
	cmp      func(a, b K) int
	numeric  bool // key images are exact (image tie == comparator tie)
	imgFn    func(K) uint64
	ar       *roundArena[K, V]
	mu       []sync.Mutex // one per partition
	sorters  []*extsort.Sorter[spillRec[K, V]]
	recBufs  [][]spillRec[K, V] // per-partition staging (guarded by mu[part])
	seq      []uint64           // per-split arrival counters (split-goroutine owned)
	records  int64
	recMu    sync.Mutex
	streams  []GroupStream[K, V]
	saved    atomic.Int64 // bytes block compression shaved off run files
}

func newSpillShuffle[K comparable, V any](reducers, splits int, cfg ShuffleConfig, compress bool, ar *roundArena[K, V]) (*spillShuffle[K, V], error) {
	pc, err := pairCodecFor[K, V]()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: spill shuffle: %w", err)
	}
	shape := keyShapeOf[K]()
	cmpFn := shape.cmp()
	imgFn := shape.image()
	numFn, _ := shape.numericImage()
	perPartition := cfg.memoryBudget() / reducers
	if perPartition < 64 {
		perPartition = 64
	}
	s := &spillShuffle[K, V]{
		reducers: reducers,
		cmp:      cmpFn,
		numeric:  numFn != nil,
		imgFn:    imgFn,
		ar:       ar,
		mu:       make([]sync.Mutex, reducers),
		sorters:  make([]*extsort.Sorter[spillRec[K, V]], reducers),
		recBufs:  make([][]spillRec[K, V], reducers),
		seq:      make([]uint64, splits),
	}
	// The merge comparator works on the cached key image: images are
	// order-consistent (img(a) < img(b) implies a < b), so only equal
	// images need more work. For numeric kinds an image tie IS a
	// comparator tie (projections are injective, and the two float
	// zeros share one image and compare equal), so the comparison
	// drops straight to the sequence tiebreak — no key is ever boxed.
	// String-ordered kinds compare the full key on equal prefixes.
	var recLess func(a, b spillRec[K, V]) bool
	if s.numeric {
		recLess = func(a, b spillRec[K, V]) bool {
			if a.img != b.img {
				return a.img < b.img
			}
			return a.seq < b.seq
		}
	} else {
		recLess = func(a, b spillRec[K, V]) bool {
			if a.img != b.img {
				return a.img < b.img
			}
			if c := cmpFn(a.key, b.key); c != 0 {
				return c < 0
			}
			return a.seq < b.seq
		}
	}
	// Runs are written in the codec-v2 block format (columnar batches,
	// per-run dictionaries, optional flate): one stateless codec shared
	// by every sorter, per-run state living in the run en/decoders.
	codec := &spillBlockCodec[K, V]{
		pc: pc, img: imgFn, compress: compress, saved: &s.saved,
	}
	for i := range s.sorters {
		s.sorters[i] = extsort.New(recLess, codec, extsort.Config{
			MaxInMemory: perPartition,
			TempDir:     cfg.TempDir,
		})
		// Run buffers sort with the order-preserving key-image radix
		// path instead of recLess (same (key, seq) order, no comparator
		// calls); the merge across runs still uses recLess. One scratch
		// per sorter: buffer sorts run on the ingest goroutine under
		// the partition lock (or during that partition's Finalize), so
		// each sorter's sort is single-threaded.
		s.sorters[i].SetBufferSort(spillBufSort[K, V](shape))
	}
	return s, nil
}

// spillBucketCap bounds the emitter's per-partition bucket between
// handoffs into the sorters; small enough to start spilling early,
// large enough to keep lock traffic negligible.
const spillBucketCap = 1024

func (s *spillShuffle[K, V]) Partitions() int { return s.reducers }

func (s *spillShuffle[K, V]) BucketCap() int { return spillBucketCap }

func (s *spillShuffle[K, V]) AddBucket(split, part int, pairs []Pair[K, V]) error {
	// Buckets arrive pre-partitioned from the emitter (map-side
	// partitioning), so no key is re-hashed here; the partition's lock
	// is taken once per bucket. Sequence numbers are assigned in bucket
	// arrival order, which preserves emission order within every
	// (split, partition) pair — all the merge needs, because a key's
	// records all live in one partition.
	n := s.seq[split]
	base := uint64(split) << seqSplitShift
	imgFn := s.imgFn
	s.mu[part].Lock()
	recs := s.recBufs[part]
	if cap(recs) < len(pairs) {
		recs = make([]spillRec[K, V], len(pairs))
	}
	recs = recs[:len(pairs)]
	for i, p := range pairs {
		recs[i] = spillRec[K, V]{seq: base | n, img: imgFn(p.Key), key: p.Key, val: p.Value}
		n++
	}
	err := s.sorters[part].AddBatch(recs)
	s.recBufs[part] = recs
	s.mu[part].Unlock()
	s.seq[split] = n
	s.recMu.Lock()
	s.records += int64(len(pairs))
	s.recMu.Unlock()
	// The bucket's pairs are copied into the sorter: the slice is dead
	// and goes back to the arena for the next emitter fill.
	s.ar.putBucket(part, pairs)
	return err
}

func (s *spillShuffle[K, V]) Finalize() ([]GroupStream[K, V], error) {
	// Each partition's Sort spills and sorts its final run buffer and
	// primes the run merge — independent per-sorter work, so the
	// partitions finalize concurrently instead of one after another.
	streams := make([]GroupStream[K, V], s.reducers)
	errs := make([]error, s.reducers)
	var wg sync.WaitGroup
	for i, sorter := range s.sorters {
		wg.Add(1)
		go func(i int, sorter *extsort.Sorter[spillRec[K, V]]) {
			defer wg.Done()
			it, err := sorter.Sort()
			if err != nil {
				errs[i] = fmt.Errorf("mapreduce: spill shuffle partition %d: %w", i, err)
				return
			}
			streams[i] = &spillGroupStream[K, V]{it: it, cmp: s.cmp, numeric: s.numeric}
		}(i, sorter)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, st := range streams {
				if st != nil {
					st.Close()
				}
			}
			return nil, err
		}
	}
	s.streams = streams
	return streams, nil
}

func (s *spillShuffle[K, V]) Close() error {
	for _, st := range s.streams {
		st.Close()
	}
	// Release run files of sorters that never reached Finalize (map
	// error, cancellation, or a Finalize failure part-way through);
	// Discard is a no-op for sorters whose runs an iterator took over.
	for _, sorter := range s.sorters {
		if sorter != nil {
			sorter.Discard()
		}
	}
	s.streams = nil
	s.sorters = nil
	return nil
}

func (s *spillShuffle[K, V]) footprint() (records, spilled, runs int64) {
	for _, sorter := range s.sorters {
		if sorter == nil {
			continue
		}
		spilled += sorter.Spilled()
		runs += int64(sorter.Runs())
	}
	return s.records, spilled, runs
}

// spillSaved reports the bytes block compression shaved off the run
// files (zero with SpillCompression off); picked up by recordShuffle.
func (s *spillShuffle[K, V]) spillSaved() int64 { return s.saved.Load() }

// runBytes sums the encoded bytes actually written to run files.
func (s *spillShuffle[K, V]) runBytes() (n int64) {
	for _, sorter := range s.sorters {
		if sorter != nil {
			n += sorter.RunBytes()
		}
	}
	return n
}

// spillGroupStream assembles key groups from a merged (key, seq)-sorted
// record stream, with one record of lookahead. The values buffer is
// owned by the stream and reused for every group (reduce functions must
// not retain the values slice beyond the call, see ReduceFunc) — one
// growing array per partition instead of one allocation per distinct
// key, which dominated the spill path's allocation profile. Group
// boundaries compare the cached key images: for numeric kinds an image
// change IS a key change and an image tie IS a comparator tie (the two
// float zeros share one image by construction), so no key is ever
// boxed; string-ordered kinds fall back to a full comparison only when
// the 8-byte prefixes collide.
type spillGroupStream[K comparable, V any] struct {
	it      *extsort.Iterator[spillRec[K, V]]
	cmp     func(a, b K) int
	numeric bool
	head    spillRec[K, V]
	vbuf    []V
	primed  bool
	done    bool
}

func (s *spillGroupStream[K, V]) Next() (K, []V, bool, error) {
	var zero K
	if s.done {
		return zero, nil, false, nil
	}
	if !s.primed {
		rec, ok, err := s.it.Next()
		if err != nil {
			return zero, nil, false, err
		}
		if !ok {
			s.done = true
			return zero, nil, false, nil
		}
		s.head, s.primed = rec, true
	}
	key := s.head.key
	img := s.head.img
	values := append(s.vbuf[:0], s.head.val)
	for {
		rec, ok, err := s.it.Next()
		if err != nil {
			return zero, nil, false, err
		}
		if !ok {
			s.done = true
			break
		}
		if rec.img != img || (!s.numeric && s.cmp(rec.key, key) != 0) {
			s.head = rec // first record of the next group
			break
		}
		if rec.key != key {
			// The comparator ties but Go equality disagrees (a
			// composite key whose fmt fallback collides, or a NaN):
			// merging would silently diverge from the memory backend,
			// so fail loudly instead.
			s.done = true
			return zero, nil, false, fmt.Errorf(
				"mapreduce: spill shuffle: key comparator cannot distinguish %v from %v; "+
					"use a key type with a total order (scalar, string, or [2]int32)",
				key, rec.key)
		}
		values = append(values, rec.val)
	}
	s.vbuf = values
	return key, values, true, nil
}

func (s *spillGroupStream[K, V]) Close() error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	s.vbuf = nil
	s.done = true
	return nil
}
