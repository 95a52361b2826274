// Package extsort implements bounded-memory external merge sort:
// records are buffered in memory, spilled as sorted runs to temporary
// files, and streamed back through a k-way loser-tree merge. It is the
// classical database technique behind the shuffle of a real MapReduce
// implementation (Hadoop spills map output exactly this way). In this
// repository it sorts records, not shuffles: cmd/datagen orders a
// generated edge list through it when the list outgrows memory. The
// spilling shuffle backend of internal/mapreduce no longer stands on
// it — it sorts and merges columns of pairs, not records, with a run
// format and a merge of its own (shuffle.go, codecv2.go there).
//
// Run generation is pipelined: encoding and writing a spilled run
// happens on a background goroutine while the caller keeps filling (and
// sorting) the next buffer, so the producer never stalls behind the
// disk. Two buffers rotate through fill → sort → write → refill; peak
// buffered memory is therefore up to two MaxInMemory buffers while a
// run is in flight.
//
// Serialization is caller-supplied through the Codec interface, so any
// record type can be sorted without reflection. Run files are unlinked
// as soon as they are created — a crash leaks no temp files — and
// Spilled/Runs expose the external-memory footprint.
//
// The buffer sort is stable and the merge breaks comparator ties by run
// creation order, so the whole sort is stable.
package extsort

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
)

// Codec serializes records of type T for spill files. Encode and Decode
// must round-trip: Decode(Encode(x)) == x. Decode returns io.EOF at the
// end of a run. Encode is invoked from the sorter's background writer
// goroutine — never concurrently with itself, but concurrently with the
// caller's Add loop — so a codec's scratch state must not be shared
// with the producing side.
type Codec[T any] interface {
	Encode(w io.Writer, rec T) error
	Decode(r io.Reader) (T, error)
}

// Config bounds the sorter's resource usage.
type Config struct {
	// MaxInMemory is the number of records buffered before a spill
	// (default 1<<20). With the pipelined writer up to two such buffers
	// are alive at once (one filling, one being written).
	MaxInMemory int
	// TempDir is the directory for spill files (default os.TempDir()).
	TempDir string
	// WriteBufBytes sizes the buffered writer used to encode each run
	// file (default 256 KiB). Larger buffers batch the encoded records
	// into fewer, larger write syscalls.
	WriteBufBytes int
}

func (c Config) maxInMemory() int {
	if c.MaxInMemory > 0 {
		return c.MaxInMemory
	}
	return 1 << 20
}

func (c Config) writeBufBytes() int {
	if c.WriteBufBytes > 0 {
		return c.WriteBufBytes
	}
	return 256 << 10
}

// runReadBufBytes sizes the per-run read buffer of the merge. Bounded
// (k runs merge with k such buffers) but large enough that a merge
// pass reads each run in long sequential slices.
const runReadBufBytes = 64 << 10

// Sorter accumulates records and produces a sorted iterator. Not safe
// for concurrent use by multiple goroutines (the internal writer
// pipeline is the sorter's own concern). A sorter that has spilled owns
// its writer goroutine and its run files until Sort returns — also after
// a failed Add, whose error Sort then repeats as it releases both.
type Sorter[T any] struct {
	less   func(a, b T) bool
	codec  Codec[T]
	cfg    Config
	buf    []T
	sorted bool

	// Writer pipeline. The caller's goroutine sorts a full buffer and
	// hands it over on writeCh; the writer goroutine encodes and writes
	// it as one run file and hands the buffer back on freeCh for reuse.
	writeCh chan []T
	freeCh  chan []T
	wg      sync.WaitGroup

	// mu guards the fields below, which the writer goroutine mutates
	// while the caller may observe them (Runs, Spilled, error checks).
	mu      sync.Mutex
	runs    []*os.File
	spilled int64
	werr    error
}

// New creates a Sorter ordering records by less.
func New[T any](less func(a, b T) bool, codec Codec[T], cfg Config) *Sorter[T] {
	return &Sorter[T]{less: less, codec: codec, cfg: cfg}
}

// Add appends one record, spilling a sorted run to disk when the memory
// budget fills.
func (s *Sorter[T]) Add(rec T) error {
	if s.sorted {
		return errors.New("extsort: Add after Sort")
	}
	s.buf = append(s.buf, rec)
	if len(s.buf) >= s.cfg.maxInMemory() {
		return s.spill()
	}
	return nil
}

// sortBuf sorts the in-memory buffer stably by less. The generic
// slices.SortStableFunc avoids the reflection-based swapping of
// sort.SliceStable, which dominated large-buffer sorts.
func (s *Sorter[T]) sortBuf() {
	slices.SortStableFunc(s.buf, func(a, b T) int {
		switch {
		case s.less(a, b):
			return -1
		case s.less(b, a):
			return 1
		default:
			return 0
		}
	})
}

// err returns the first error recorded by the writer goroutine.
func (s *Sorter[T]) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr
}

// fail records a writer-side error (first one wins).
func (s *Sorter[T]) fail(err error) {
	s.mu.Lock()
	if s.werr == nil {
		s.werr = err
	}
	s.mu.Unlock()
}

// startWriter launches the background run writer. freeCh is primed with
// a nil buffer so the first spill returns immediately and the second
// buffer of the double-buffer pair is grown lazily. Capacity 2 keeps
// the writer's final hand-back non-blocking: Sort hands over the last
// buffer without taking one in exchange, so one returned buffer can sit
// in the channel alongside the primed slot.
func (s *Sorter[T]) startWriter() {
	s.writeCh = make(chan []T)
	s.freeCh = make(chan []T, 2)
	s.freeCh <- nil
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for buf := range s.writeCh {
			s.writeRun(buf)
			s.freeCh <- buf
		}
	}()
}

// drainWriter finishes the pipeline: no more runs will be handed over,
// and every in-flight run is on disk when it returns.
func (s *Sorter[T]) drainWriter() {
	if s.writeCh == nil {
		return
	}
	close(s.writeCh)
	s.wg.Wait()
	s.writeCh = nil
	s.freeCh = nil
}

// spill hands the sorted buffer to the writer pipeline and swaps in the
// free buffer of the pair, blocking only when the previous run is still
// being written.
func (s *Sorter[T]) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	s.sortBuf()
	if s.writeCh == nil {
		s.startWriter()
	}
	s.writeCh <- s.buf
	s.buf = (<-s.freeCh)[:0]
	// A write error surfaces on the next spill (or at Sort); the failed
	// writer keeps cycling buffers so the pipeline never deadlocks.
	return s.err()
}

// writeRun encodes one sorted buffer as a run file (writer goroutine).
func (s *Sorter[T]) writeRun(buf []T) {
	if s.err() != nil {
		return // the sorter already failed; drop subsequent runs
	}
	f, err := os.CreateTemp(s.cfg.TempDir, "extsort-run-*.bin")
	if err != nil {
		s.fail(fmt.Errorf("extsort: spill: %w", err))
		return
	}
	// The file is unlinked immediately; the open handle keeps the data
	// alive for the merge and crashes leak nothing.
	os.Remove(f.Name())
	bw := bufio.NewWriterSize(f, s.cfg.writeBufBytes())
	for _, rec := range buf {
		if err := s.codec.Encode(bw, rec); err != nil {
			f.Close()
			s.fail(fmt.Errorf("extsort: encode: %w", err))
			return
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		s.fail(fmt.Errorf("extsort: flush: %w", err))
		return
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		s.fail(fmt.Errorf("extsort: rewind: %w", err))
		return
	}
	s.mu.Lock()
	s.runs = append(s.runs, f)
	s.spilled += int64(len(buf))
	s.mu.Unlock()
}

// Runs returns the number of spilled runs so far (exposed for tests and
// stats).
func (s *Sorter[T]) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Spilled returns the number of records written to disk so far. Records
// that stay in the final in-memory buffer are never counted, so a sorter
// that fits its budget reports zero.
func (s *Sorter[T]) Spilled() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// closeRuns releases every spilled run file.
func (s *Sorter[T]) closeRuns() {
	s.mu.Lock()
	runs := s.runs
	s.runs = nil
	s.mu.Unlock()
	for _, f := range runs {
		f.Close()
	}
}

// Sort finalizes the sorter and returns an iterator over all records in
// order. The Sorter must not be used afterwards; the iterator must be
// closed.
func (s *Sorter[T]) Sort() (*Iterator[T], error) {
	if s.sorted {
		return nil, errors.New("extsort: Sort called twice")
	}
	s.sorted = true
	if s.writeCh == nil {
		// Pure in-memory path: nothing ever spilled.
		s.sortBuf()
		return &Iterator[T]{mem: s.buf}, nil
	}
	// The final partial buffer becomes the last run, then the pipeline
	// drains so every run is fully on disk.
	if len(s.buf) > 0 {
		s.sortBuf()
		s.writeCh <- s.buf
		s.buf = nil
	}
	s.drainWriter()
	if err := s.err(); err != nil {
		s.closeRuns()
		return nil, err
	}
	// s.runs stays populated so Runs()/Spilled() keep reporting the
	// footprint after Sort; the files themselves now belong to the
	// iterator.
	s.mu.Lock()
	runs := s.runs
	s.mu.Unlock()
	it := &Iterator[T]{less: s.less, codec: s.codec}
	for _, f := range runs {
		src := &runSource[T]{r: bufio.NewReaderSize(f, runReadBufBytes), f: f}
		rec, err := s.codec.Decode(src.r)
		if err == io.EOF {
			f.Close()
			continue
		}
		if err != nil {
			// Close every run file, not just those already primed into
			// the iterator (a double Close on the consumed ones is
			// harmless); otherwise the failing and not-yet-primed runs
			// leak until process exit.
			for _, rf := range runs {
				rf.Close()
			}
			it.srcs = nil
			return nil, fmt.Errorf("extsort: prime run: %w", err)
		}
		src.head = rec
		it.srcs = append(it.srcs, src)
	}
	it.initTree()
	return it, nil
}

// runSource is one spilled run during the merge.
type runSource[T any] struct {
	r    *bufio.Reader
	f    *os.File
	head T
	done bool
}

// Iterator streams records in sorted order.
type Iterator[T any] struct {
	// in-memory path
	mem []T
	pos int
	// merge path: a loser tree over the run sources. Unlike the
	// container/heap merge it replaces, each pop costs exactly
	// ceil(log2 k) comparisons (the heap pays up to 2 per level) and no
	// interface boxing. Leaf j sits at tree position k+j; internal
	// nodes 1..k-1 each store the losing leaf of their subtree and
	// win caches the overall winner.
	less  func(a, b T) bool
	codec Codec[T]
	srcs  []*runSource[T]
	lt    []int32
	win   int32
	live  int
}

// beats reports whether leaf a's head precedes leaf b's in the merge.
// Exhausted sources lose to everything; comparator ties resolve to the
// lower leaf index, i.e. the earlier-created run — this is what makes
// the merge stable.
func (it *Iterator[T]) beats(a, b int32) bool {
	sa, sb := it.srcs[a], it.srcs[b]
	if sb.done {
		return true
	}
	if sa.done {
		return false
	}
	if a < b {
		return !it.less(sb.head, sa.head)
	}
	return it.less(sa.head, sb.head)
}

// initTree builds the loser tree over the primed sources.
func (it *Iterator[T]) initTree() {
	k := len(it.srcs)
	it.live = k
	if k == 0 {
		return
	}
	it.lt = make([]int32, k)
	if k == 1 {
		it.win = 0
		return
	}
	// winner(node) resolves the subtree rooted at the given tree
	// position, recording losers on the way up.
	var winner func(node int32) int32
	winner = func(node int32) int32 {
		if node >= int32(k) {
			return node - int32(k)
		}
		a, b := winner(2*node), winner(2*node+1)
		if it.beats(a, b) {
			it.lt[node] = b
			return a
		}
		it.lt[node] = a
		return b
	}
	it.win = winner(1)
}

// Next returns the next record; ok is false at the end of the stream.
func (it *Iterator[T]) Next() (rec T, ok bool, err error) {
	if it.srcs == nil {
		if it.pos >= len(it.mem) {
			var zero T
			return zero, false, nil
		}
		rec = it.mem[it.pos]
		it.pos++
		return rec, true, nil
	}
	if it.live == 0 {
		var zero T
		return zero, false, nil
	}
	w := it.win
	src := it.srcs[w]
	rec = src.head
	next, derr := it.codec.Decode(src.r)
	switch {
	case derr == io.EOF:
		src.f.Close()
		src.done = true
		it.live--
	case derr != nil:
		var zero T
		return zero, false, fmt.Errorf("extsort: merge decode: %w", derr)
	default:
		src.head = next
	}
	// Replay the path from the winner's leaf to the root: at each
	// internal node the stored loser challenges the rising candidate.
	k := int32(len(it.srcs))
	if k > 1 {
		cur := w
		for node := (k + w) / 2; node >= 1; node /= 2 {
			if it.beats(it.lt[node], cur) {
				cur, it.lt[node] = it.lt[node], cur
			}
		}
		it.win = cur
	}
	return rec, true, nil
}

// Close releases any remaining run files. Safe to call multiple times.
func (it *Iterator[T]) Close() {
	for _, src := range it.srcs {
		src.f.Close()
	}
	it.srcs = it.srcs[:0]
	it.lt = nil
	it.live = 0
	it.mem = nil
}

// Drain reads the remaining records into a slice (convenience for tests
// and small outputs) and closes the iterator.
func (it *Iterator[T]) Drain() ([]T, error) {
	defer it.Close()
	var out []T
	for {
		rec, ok, err := it.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, rec)
	}
}
