package mapreduce

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
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
// by cutting each partition's buffered buckets into sorted runs on disk,
// as Hadoop's map-side spill does, and merging them back into key groups
// on the reduce side; its run format is codecv2.go's.

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
	// locally, and the output stays worker-resident between chained
	// jobs until Materialize fetches it. Output is
	// bit-identical to ShuffleMemory for the same seed and partition
	// count. See dist.go and distworker.go.
	ShuffleDist ShuffleKind = "dist"
)

// ShuffleConfig selects and bounds the shuffle backend of a job.
type ShuffleConfig struct {
	// Backend selects the implementation. Empty means ShuffleMemory.
	Backend ShuffleKind
	// MemoryBudget is the number of intermediate records the spilling
	// backend buffers across all partitions before it writes sorted
	// runs to disk (default 1<<20); every partition gets an equal share
	// of it (at least 64 records). Ignored by the memory backend.
	//
	// What is resident during the map phase: a partition's pending
	// buckets — the emitters' own slices, kept as delivered — never
	// more than its share, plus at most one run in flight per
	// partition: the share just cut off, first as its buckets, then as
	// the arrays they are gathered into, then as the sorted arrays the
	// blocks are encoded from (the buckets are held until the sort ends;
	// integer keys skip the gather, and a wide range among them sorts
	// through a spare set of the sorted arrays instead, see groupSegs).
	// Ingest into a full partition blocks until the run in flight is on
	// disk rather than queueing a second one behind it, so at no time
	// are more than 2 x MemoryBudget records buffered (2 x 64 per
	// partition under a budget below that floor;
	// TestSpillResidentRecordsBounded). During the reduce phase a
	// partition that spilled holds what was still pending when the map
	// phase ended (less than its share, sorted), one block of 512
	// records per run, and its largest key group. Not counted: the
	// partial bucket every map task is filling for every partition
	// (1024 records at most each).
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
	// (collecting bucket slice headers, or waiting for a run in flight); the
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
		return newSpillShuffle[K, V](cfg.reducers(), splits, cfg.Shuffle, ar)
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
	ar       *roundArena[K, V]
	// segs[split][partition] lists the split's delivered buckets for
	// that partition, in arrival (= emission) order.
	segs    [][][]bucketSeg[K, V]
	records int64
}

func newMemoryShuffle[K comparable, V any](reducers, splits int, ar *roundArena[K, V]) *memoryShuffle[K, V] {
	return &memoryShuffle[K, V]{
		reducers: reducers,
		shape:    keyShapeOf[K](),
		ar:       ar,
		segs:     make([][][]bucketSeg[K, V], splits),
	}
}

func (m *memoryShuffle[K, V]) Partitions() int { return m.reducers }

func (m *memoryShuffle[K, V]) BucketCap() int { return 0 }

func (m *memoryShuffle[K, V]) AddBucket(split, part int, pairs []Pair[K, V]) error {
	// Each split writes only its own index, so concurrent AddBuckets
	// from distinct splits need no lock.
	if m.segs[split] == nil {
		m.segs[split] = make([][]bucketSeg[K, V], m.reducers)
	}
	m.segs[split][part] = append(m.segs[split][part], bucketSeg[K, V]{int32(split), pairs})
	return nil
}

func (m *memoryShuffle[K, V]) Finalize() ([]GroupStream[K, V], error) {
	streams := make([]GroupStream[K, V], m.reducers)
	for p := range streams {
		var segs []bucketSeg[K, V]
		for _, bySplit := range m.segs {
			if bySplit == nil {
				continue
			}
			for _, seg := range bySplit[p] {
				segs = append(segs, seg)
				m.records += int64(len(seg.pairs))
			}
		}
		streams[p] = &memGroupStream[K, V]{segs: segs, shape: m.shape, ar: m.ar, part: p}
	}
	m.segs = nil
	return streams, nil
}

func (m *memoryShuffle[K, V]) Close() error { m.segs = nil; return nil }

func (m *memoryShuffle[K, V]) footprint() (records, spilled, runs int64) {
	return m.records, 0, 0
}

// memGroupStream serves one partition's key groups. The first Next call
// — inside the reduce task's goroutine, so partitions group in parallel
// — group-sorts the pre-partitioned split segments (emission order
// within a split, splits ascending) into two flat arrays of keys and
// values (groupSegs). Integer keys are counted and scattered straight
// from the buckets into those arrays: an 8-byte message (an int32 key
// and an int32 value) costs 8 B of working memory beyond its bucket for
// a narrow range — the node and term ids of the matching and join jobs
// — and 16 B for a wide one (the zipf graphs' 19-bit node ids).
// [2]int32 and string keys are gathered and sorted by comparison. A group
// ends at the first key that differs, and every group is a zero-copy
// sub-slice of the values array: no per-key map, no per-key grown
// slices.
//
// With a recycler arena attached, the stream is where round-lifetime
// buffers cycle: prime checks its working arrays and radix scratch out
// of the arena and returns the scratch (plus the consumed bucket
// segments) as soon as the sort is done, and Close — the moment the
// round's groups have been consumed — returns the sorted key and value
// arrays, so the next round's stream for this partition reuses them.
type memGroupStream[K comparable, V any] struct {
	segs   []bucketSeg[K, V]
	shape  keyShape[K]
	ar     *roundArena[K, V]
	part   int
	keys   []K
	vals   []V
	pos    int
	primed bool
}

func (s *memGroupStream[K, V]) prime() {
	s.primed = true
	n := 0
	for _, seg := range s.segs {
		n += len(seg.pairs)
	}
	s.keys, s.vals, _ = groupSegs(s.segs, n, false, s.shape, s.ar, s.part)
	s.segs = nil
}

func (s *memGroupStream[K, V]) Next() (K, []V, bool, error) {
	if !s.primed {
		s.prime()
	}
	n := len(s.keys)
	if s.pos >= n {
		var zero K
		return zero, nil, false, nil
	}
	pos := s.pos
	key := s.keys[pos]
	end := pos + 1
	for end < n && s.keys[end] == key {
		end++
	}
	s.pos = end
	return key, s.vals[pos:end], true, nil
}

func (s *memGroupStream[K, V]) Close() error {
	// The round's groups have been consumed: the sorted key and value
	// arrays return to the arena for the next round.
	s.ar.putKeys(s.part, s.keys)
	s.ar.putVals(s.part, s.vals)
	s.segs, s.keys, s.vals = nil, nil, nil
	s.pos = 0
	return nil
}

// ---------------------------------------------------------------------
// Spilling backend: external-memory shuffle over the pairs themselves.
// A partition keeps the emitters' buckets exactly as delivered until its
// share of the memory budget is buffered; the buffered buckets are then
// cut off as one run, which the partition's writer goroutine gathers
// split-major, sorts with the memory backend's group sort, and encodes
// block by block into the partition's spill file. The reduce side merges
// the runs' blocks (and the unsorted tail still in memory) back into key
// groups. A partition that never overflowed is served by memGroupStream,
// so a round that fits its budget costs what the memory backend costs.
//
// Value order needs no sequence numbers: a split's buckets reach a
// partition in emission order and runs are cut in arrival order, so
// within one key (split, run index, position in run) IS the engine's
// (split, emission) order. Runs are sorted by (key, split, position) —
// a stable key sort of a split-major gather — and the merge breaks key
// ties toward the lower split and then the earlier run.

// spillExtent locates one run in its partition's spill file.
type spillExtent struct{ off, n int64 }

// spillPart is one reduce partition's ingest state. mu guards every
// field below it except where noted; idle is signalled whenever the run
// in flight lands (or fails), which is what a full partition's ingest
// and Finalize wait for.
type spillPart[K comparable, V any] struct {
	mu       sync.Mutex
	idle     sync.Cond
	pending  []bucketSeg[K, V] // buckets not yet cut into a run, in arrival order
	spare    []bucketSeg[K, V] // the previous cut's list, emptied, for the next cut
	n        int               // records in pending
	records  int64             // records ever added
	inflight bool              // a cut run is being sorted and written
	err      error             // first run-writer failure
	runs     []spillExtent     // each holds exactly one share of records
	// file is the partition's one spill file, created (and unlinked) by
	// its first run. Only the run writer touches it while inflight, only
	// the partition's stream or Close afterwards.
	file    *os.File
	fileLen int64
}

type spillShuffle[K comparable, V any] struct {
	reducers int
	splits   int
	share    int // records a partition buffers before a run is cut
	shape    keyShape[K]
	cmp      func(a, b K) int
	pc       *pairCodec[K, V]
	tempDir  string
	ar       *roundArena[K, V]
	parts    []spillPart[K, V]
	streams  []GroupStream[K, V]
	// resident counts the records in pending buckets and in runs in
	// flight; peak is its high-water mark, which is what
	// ShuffleConfig.MemoryBudget bounds.
	resident, peak atomic.Int64
}

func newSpillShuffle[K comparable, V any](reducers, splits int, cfg ShuffleConfig, ar *roundArena[K, V]) (*spillShuffle[K, V], error) {
	pc, err := pairCodecFor[K, V]()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: spill shuffle: %w", err)
	}
	shape := keyShapeOf[K]()
	s := &spillShuffle[K, V]{
		reducers: reducers,
		splits:   splits,
		share:    max(cfg.memoryBudget()/reducers, 64),
		shape:    shape,
		cmp:      shape.cmp(),
		pc:       pc,
		tempDir:  cfg.TempDir,
		ar:       ar,
		parts:    make([]spillPart[K, V], reducers),
	}
	for i := range s.parts {
		s.parts[i].idle.L = &s.parts[i].mu
	}
	return s, nil
}

// spillBucketCap bounds the emitter's per-partition bucket between
// handoffs: small enough to start spilling early, large enough to keep
// lock traffic negligible.
const spillBucketCap = 1024

func (s *spillShuffle[K, V]) Partitions() int { return s.reducers }

func (s *spillShuffle[K, V]) BucketCap() int { return spillBucketCap }

func (s *spillShuffle[K, V]) AddBucket(split, part int, pairs []Pair[K, V]) error {
	// Buckets arrive pre-partitioned from the emitter and are kept as
	// they are: only slice headers move under the partition's lock. A
	// run is cut at exactly the partition's share — the bucket that
	// crosses it is sliced in two, no pair copied — so how many runs a
	// job writes and how many records they hold do not depend on how
	// the splits' buckets interleave.
	p := &s.parts[part]
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(pairs) > 0 {
		// A full partition means a run is in flight (the writer cuts the
		// next one itself the moment it lands): ingest waits for it
		// rather than queueing a second run's worth behind it.
		for p.n == s.share && p.err == nil {
			p.idle.Wait()
		}
		if p.err != nil {
			return p.err
		}
		head := pairs
		if room := s.share - p.n; room < len(pairs) {
			// Capacity capped at the cut, so that the two halves are
			// disjoint buffers to whoever recycles them.
			head = pairs[:room:room]
		}
		pairs = pairs[len(head):]
		p.pending = append(p.pending, bucketSeg[K, V]{int32(split), head})
		p.n += len(head)
		p.records += int64(len(head))
		r := s.resident.Add(int64(len(head)))
		for pk := s.peak.Load(); r > pk && !s.peak.CompareAndSwap(pk, r); pk = s.peak.Load() {
		}
		if p.n == s.share && !p.inflight {
			p.inflight = true
			go s.writeRuns(part, p.cut())
		}
	}
	return nil
}

// cut detaches the pending buckets, one share of records, as a run.
// Caller holds p.mu.
func (p *spillPart[K, V]) cut() []bucketSeg[K, V] {
	segs := p.pending
	p.pending, p.spare, p.n = p.spare, nil, 0
	return segs
}

// writeRuns is a partition's run writer: it writes the run just cut and
// then, for as long as ingest has refilled the partition meanwhile, the
// next one. At most one runs per partition (p.inflight).
func (s *spillShuffle[K, V]) writeRuns(part int, segs []bucketSeg[K, V]) {
	p := &s.parts[part]
	for {
		ext, err := s.writeRun(part, segs)
		p.mu.Lock()
		p.spare = segs[:0]
		s.resident.Add(-int64(s.share))
		if err == nil {
			p.runs = append(p.runs, ext)
			p.fileLen += ext.n
		} else {
			p.err = err
		}
		more := err == nil && p.n == s.share
		if more {
			segs = p.cut()
		} else {
			p.inflight = false
		}
		p.idle.Broadcast()
		p.mu.Unlock()
		if !more {
			return
		}
	}
}

// spillWriteChunk is how many encoded bytes a run accumulates between
// two writes to its file: few, large write syscalls.
const spillWriteChunk = 256 << 10

// writeRun sorts one cut — a share of records — and appends it to the
// partition's spill file.
func (s *spillShuffle[K, V]) writeRun(part int, segs []bucketSeg[K, V]) (spillExtent, error) {
	p, n := &s.parts[part], s.share
	keys, vals, splits := groupSegs(segs, n, true, s.shape, s.ar, part)
	defer func() {
		s.ar.putKeys(part, keys)
		s.ar.putVals(part, vals)
		s.ar.putI32(part, splits)
	}()
	if p.file == nil {
		f, err := os.CreateTemp(s.tempDir, "mapreduce-spill-*.bin")
		if err != nil {
			return spillExtent{}, fmt.Errorf("mapreduce: spill: %w", err)
		}
		// Unlinked at once: the open handle keeps the data alive for the
		// merge and a crash leaks nothing.
		os.Remove(f.Name())
		p.file = f
	}
	enc := s.pc.getRunEnc()
	defer s.pc.putRunEnc(enc)
	ext := spillExtent{off: p.fileLen}
	flush := func() error {
		m, err := p.file.WriteAt(enc.out, ext.off+ext.n)
		ext.n += int64(m)
		enc.out = enc.out[:0]
		if err != nil {
			return fmt.Errorf("mapreduce: spill: %w", err)
		}
		return nil
	}
	for lo := 0; lo < n; lo += spillBlockRecs {
		hi := min(lo+spillBlockRecs, n)
		if err := enc.appendBlock(s.pc, keys[lo:hi], vals[lo:hi], splits[lo:hi]); err != nil {
			return spillExtent{}, fmt.Errorf("mapreduce: spill encode: %w", err)
		}
		if len(enc.out) >= spillWriteChunk {
			if err := flush(); err != nil {
				return spillExtent{}, err
			}
		}
	}
	return ext, flush()
}

// settle waits for the partition's run in flight, if any, and returns
// the writer's first failure.
func (p *spillPart[K, V]) settle() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.inflight {
		p.idle.Wait()
	}
	return p.err
}

// closeFile releases the partition's spill file (idempotent). The
// writer must have settled.
func (p *spillPart[K, V]) closeFile() {
	if p.file != nil {
		p.file.Close()
		p.file = nil
	}
}

func (s *spillShuffle[K, V]) Finalize() ([]GroupStream[K, V], error) {
	// Bookkeeping only: the tail sort and the merge set-up run inside
	// the reduce tasks, partition-parallel, like the memory backend's
	// group sort.
	streams := make([]GroupStream[K, V], s.reducers)
	for i := range s.parts {
		p := &s.parts[i]
		if err := p.settle(); err != nil {
			return nil, fmt.Errorf("mapreduce: spill shuffle partition %d: %w", i, err)
		}
		if len(p.runs) == 0 {
			streams[i] = &memGroupStream[K, V]{segs: p.pending, shape: s.shape, ar: s.ar, part: i}
			p.pending = nil
			continue
		}
		streams[i] = &spillMergeStream[K, V]{s: s, p: p, part: i}
	}
	s.streams = streams
	return streams, nil
}

func (s *spillShuffle[K, V]) Close() error {
	for _, st := range s.streams {
		st.Close()
	}
	s.streams = nil
	// Partitions that never reached a stream (map error, cancellation,
	// a Finalize failure part-way through) still own their files.
	for i := range s.parts {
		p := &s.parts[i]
		p.settle()
		p.closeFile()
		p.pending = nil
	}
	return nil
}

func (s *spillShuffle[K, V]) footprint() (records, spilled, runs int64) {
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		records += p.records
		runs += int64(len(p.runs))
		p.mu.Unlock()
	}
	return records, runs * int64(s.share), runs
}

// spillCursor is one merge input: the column arrays of a run's current
// block, or of the whole sorted in-memory tail (dec == nil).
type spillCursor[K comparable, V any] struct {
	keys   []K
	vals   []V
	splits []int32
	pos, n int
	dec    *spillRunDec[K, V]
}

// spillMergeStream serves the key groups of a partition that spilled: a
// loser-tree merge over one cursor per run, in run order, and a last
// one for the tail that was still buffered when the map phase ended.
// Heads compare by key, through the key shape's comparator, then by
// split, then by cursor index, which is run order. A cursor whose next
// record continues the current (key, split) stretch still wins against
// every other head (an earlier run with an equal head would have won
// before it, a later one loses the tie), so whole stretches are taken
// per tree replay, not single records.
//
// The values buffer is owned by the stream and reused for every group
// (reduce functions must not retain the values slice beyond the call,
// see ReduceFunc). The first Next — inside the reduce task's goroutine,
// so partitions set up in parallel — sorts the tail and decodes every
// run's first block; the block column arrays are three arena slabs
// carved one block per run.
type spillMergeStream[K comparable, V any] struct {
	s    *spillShuffle[K, V]
	p    *spillPart[K, V]
	part int
	cur  []spillCursor[K, V]
	// Loser tree over cur: leaf j sits at tree position k+j, internal
	// nodes 1..k-1 store the losing leaf of their subtree, win is the
	// overall winner.
	lt   []int32
	win  int32
	live int // cursors not yet exhausted
	vbuf []V
	// Arena check-outs returned at Close: the block slabs and the
	// tail's sorted arrays.
	slabK, tailK []K
	slabV, tailV []V
	slabS, tailS []int32
	primed, done bool
}

func (m *spillMergeStream[K, V]) prime() error {
	m.primed = true
	s, p := m.s, m.p
	nr := len(p.runs)
	m.cur = make([]spillCursor[K, V], nr, nr+1)
	m.slabK = s.ar.getKeys(m.part, nr*spillBlockRecs)
	m.slabV = s.ar.getVals(m.part, nr*spillBlockRecs)
	m.slabS = s.ar.getI32(m.part, nr*spillBlockRecs)
	for i, ext := range p.runs {
		lo, hi := i*spillBlockRecs, (i+1)*spillBlockRecs
		m.cur[i] = spillCursor[K, V]{
			keys: m.slabK[lo:hi], vals: m.slabV[lo:hi], splits: m.slabS[lo:hi],
			dec: s.pc.getRunDec(p.file, ext.off, ext.n),
		}
		m.live++
		if err := m.refill(&m.cur[i]); err != nil {
			return err
		}
	}
	if p.n > 0 {
		m.tailK, m.tailV, m.tailS = groupSegs(p.pending, p.n, true, s.shape, s.ar, m.part)
		p.pending = nil
		m.cur = append(m.cur, spillCursor[K, V]{keys: m.tailK, vals: m.tailV, splits: m.tailS, n: p.n})
		m.live++
	}
	m.initTree()
	return nil
}

// refill loads c's next block; an exhausted cursor (the end of its run,
// or the tail, which is one block) leaves the merge.
func (m *spillMergeStream[K, V]) refill(c *spillCursor[K, V]) error {
	c.pos, c.n = 0, 0
	if c.dec != nil {
		n, err := c.dec.readBlock(m.s.pc, m.s.splits, c.keys, c.vals, c.splits)
		if err == nil {
			c.n = n
			return nil
		}
		if err != io.EOF {
			return err
		}
		m.s.pc.putRunDec(c.dec)
		c.dec = nil
	}
	m.live--
	return nil
}

// beats reports whether cursor a's head precedes cursor b's in the
// merge. Exhausted cursors lose to everything.
func (m *spillMergeStream[K, V]) beats(a, b int32) bool {
	ca, cb := &m.cur[a], &m.cur[b]
	if cb.n == 0 {
		return true
	}
	if ca.n == 0 {
		return false
	}
	if c := m.s.cmp(ca.keys[ca.pos], cb.keys[cb.pos]); c != 0 {
		return c < 0
	}
	if sa, sb := ca.splits[ca.pos], cb.splits[cb.pos]; sa != sb {
		return sa < sb
	}
	return a < b
}

// initTree builds the loser tree over the primed cursors.
func (m *spillMergeStream[K, V]) initTree() {
	k := int32(len(m.cur))
	m.lt = make([]int32, k)
	// winner resolves the subtree rooted at a tree position, recording
	// losers on the way up.
	var winner func(node int32) int32
	winner = func(node int32) int32 {
		if node >= k {
			return node - k
		}
		a, b := winner(2*node), winner(2*node+1)
		if m.beats(a, b) {
			m.lt[node] = b
			return a
		}
		m.lt[node] = a
		return b
	}
	if k > 1 {
		m.win = winner(1)
	}
}

// replay restores the tree after the winner's head changed: the losers
// stored on the path from its leaf to the root challenge it in turn.
func (m *spillMergeStream[K, V]) replay() {
	k := int32(len(m.cur))
	cur := m.win
	for node := (k + cur) / 2; node >= 1; node /= 2 {
		if m.beats(m.lt[node], cur) {
			cur, m.lt[node] = m.lt[node], cur
		}
	}
	m.win = cur
}

func (m *spillMergeStream[K, V]) Next() (K, []V, bool, error) {
	var zero K
	if !m.primed {
		if err := m.prime(); err != nil {
			m.done = true
			return zero, nil, false, err
		}
	}
	if m.done || m.live == 0 {
		return zero, nil, false, nil
	}
	c := &m.cur[m.win]
	key := c.keys[c.pos]
	values := m.vbuf[:0]
	for {
		split, end := c.splits[c.pos], c.pos+1
		for end < c.n && c.splits[end] == split && c.keys[end] == key {
			end++
		}
		values = append(values, c.vals[c.pos:end]...)
		if c.pos = end; end == c.n {
			if err := m.refill(c); err != nil {
				m.done = true
				return zero, nil, false, err
			}
		}
		m.replay()
		if m.live == 0 {
			break
		}
		c = &m.cur[m.win]
		if c.keys[c.pos] != key {
			break // first record of the next group
		}
	}
	m.vbuf = values
	return key, values, true, nil
}

func (m *spillMergeStream[K, V]) Close() error {
	for i := range m.cur {
		if d := m.cur[i].dec; d != nil {
			m.s.pc.putRunDec(d)
		}
	}
	ar := m.s.ar
	ar.putKeys(m.part, m.slabK)
	ar.putKeys(m.part, m.tailK)
	ar.putVals(m.part, m.slabV)
	ar.putVals(m.part, m.tailV)
	ar.putI32(m.part, m.slabS)
	ar.putI32(m.part, m.tailS)
	m.slabK, m.tailK, m.slabV, m.tailV = nil, nil, nil, nil
	m.slabS, m.tailS = nil, nil
	m.cur, m.lt, m.vbuf = nil, nil, nil
	m.p.closeFile()
	m.done = true
	return nil
}
