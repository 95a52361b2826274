package mapreduce

import (
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/mapreduce/remote"
)

// This file implements codec v2, the batch encoding shared by every
// bulk byte path: dist bucket frames, seed and fetch blobs, and
// (as the blocks of a spill run, below) the spill shuffle's run files.
// The paper's cost
// model is dominated by bytes moved per round, and a per-pair row
// framing — uvarint key length, key, uvarint value length, value — pays
// two length prefixes per pair and encodes every id at full varint
// width. v2 encodes a batch column-wise:
//
//	blob     := marker byte, payload
//	marker   := 0x02 (v2 columns)
//	payload  := key column, value column
//
// Column encodings (the lanes, codeclane.go) are resolved per concrete
// element type, named types included:
//
//   - integer kinds of 4 or 8 bytes: zigzag varint deltas between
//     consecutive elements. The ids that dominate GreedyMR/StackMR
//     traffic (graph.NodeID, vector.TermID) arrive sorted or clustered,
//     so deltas are near zero and encode in one byte.
//   - strings: a dictionary interning each distinct string once per
//     blob (wire) or once per run (spill), then 1–3 byte refs. Refs are
//     written as token+1; token 0 escapes to an inline string, so a
//     batch with more than dictMaxEntries distinct strings still
//     round-trips.
//   - float64: raw little-endian words (8 bytes).
//   - bools: bit-packed, eight per byte.
//   - [2]int32 (edge endpoints): two delta sub-columns.
//   - empty structs: zero bytes.
//   - types that encode themselves (encoding.BinaryAppender, with
//     BinaryUnmarshaler on the pointer): length-prefixed elements in
//     the self-encoding column.
//
// Nothing else has a codec: a narrow integer, a float32, any other
// array or a slice must be wrapped in a type that encodes itself, and a
// type with no codec is refused when the pair codec is resolved.
//
// A blob is fully self-contained: the coordinator relays chained-mode
// bucket frames between worker connections verbatim, and streams the
// blobs it encodes for a placed Dataset as MsgSeed frames to whichever
// worker owns the partition — so no decoder state (dictionary included)
// may span frames on the wire. The per-connection dictionary the design sketch called
// for is therefore realized per-frame on the wire and per-run on the
// spill path, where one process writes and reads the stream in order.
//
// The marker byte names the payload form; a marker this build does not
// write (0x01 was the retired row framing, 0x03 the retired flate-
// compressed columns) is a decode error, and remote.Proto gates
// mixed-build clusters.

// pairBlobV2 is the pair-blob codec marker (the first byte of every
// versioned blob): v2 columnar, key column then value column.
const pairBlobV2 byte = 0x02

// dictMaxEntries caps a string dictionary; further distinct strings
// escape to inline tokens rather than growing the table without bound.
const dictMaxEntries = 1 << 16

// maxPairCount bounds any wire-declared pair count after the per-type
// minimum-width check; a count past this is corruption regardless.
const maxPairCount = 1 << 31

// pairDict is the string-interning state of one dictionary column.
// Encoder side: idx/entries assign dense ids in first-seen order and
// emitted marks how many entries earlier blocks of the same run already
// wrote (always 0 for self-contained wire blobs). Decoder side: entries
// mirrors the encoder table as refs resolve.
type pairDict struct {
	idx     map[string]uint32
	entries []string
	emitted int
	tokens  []uint32 // encoder scratch: one token per pair in the batch
}

func (d *pairDict) reset() {
	clear(d.idx)
	d.entries = d.entries[:0]
	d.emitted = 0
}

var pairDictPool = sync.Pool{New: func() any { return newPairDict() }}

func getPairDict() *pairDict  { return pairDictPool.Get().(*pairDict) }
func putPairDict(d *pairDict) { d.reset(); pairDictPool.Put(d) }

// newPairDict returns an unpooled dictionary for per-run spill state.
func newPairDict() *pairDict { return &pairDict{idx: make(map[string]uint32)} }

// pairCodec is the codec of one (K, V) pair type: the key lane, the
// value lane, and the spill run en/decoders recycled between runs. It
// is what every byte path holds — resolved once per pair type by
// pairCodecFor and cached for the life of the process.
type pairCodec[K comparable, V any] struct {
	key, val lane
	// min8 is the pair's minimum encoded width in eighths of a byte;
	// the decoders use it to bound wire-declared counts.
	min8 int

	// encs and decs recycle spill run en/decoders. They live here —
	// not on the per-job spill shuffle — because jobs are born and die
	// with their shuffles while this codec is cached for the process
	// lifetime: a run en/decoder's grown buffers then survive across
	// jobs, not just across one job's runs. Pooled en/decoders carry
	// no job state.
	encs freeList[spillRunEnc[K, V]]
	decs freeList[spillRunDec[K, V]]
}

var pairCodecs sync.Map // reflect.Type of Pair[K, V] -> *pairCodec[K, V]

// pairCodecFor returns the codec of Pair[K, V]. A key or value type
// with no codec (see laneFor) is an error here, before a record moves.
// The memory backend never serialises and never asks.
func pairCodecFor[K comparable, V any]() (*pairCodec[K, V], error) {
	id := reflect.TypeFor[Pair[K, V]]()
	if v, ok := pairCodecs.Load(id); ok {
		return v.(*pairCodec[K, V]), nil
	}
	key, err := laneFor[K]()
	if err != nil {
		return nil, fmt.Errorf("key type %w", err)
	}
	val, err := laneFor[V]()
	if err != nil {
		return nil, fmt.Errorf("value type %w", err)
	}
	v, _ := pairCodecs.LoadOrStore(id, &pairCodec[K, V]{key: key, val: val, min8: key.min8 + val.min8})
	return v.(*pairCodec[K, V]), nil
}

// freeList is a bounded free list with strong references, not a
// sync.Pool: a spilling job allocates tens of MB between runs, so the
// GC fires often enough to wipe a sync.Pool before the next run could
// reuse anything.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// spillFreeCap bounds each of a pair type's en/decoder free lists. A
// k-way merge parks up to k decoders when it drains, so the cap is
// sized to a realistically wide merge; beyond it, extras fall to the
// GC. The retained memory per entry is its grown byte buffers (a
// decoder's include the run read buffer).
const spillFreeCap = 32

// get returns a parked *T, or nil when the list is empty.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	if len(l.free) < spillFreeCap {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// appendCols appends the key and value columns of pairs. kd and vd are
// the per-run dictionaries of a spill run; a self-contained wire blob
// passes nil and gets pooled per-blob ones.
func (pc *pairCodec[K, V]) appendCols(buf []byte, pairs []Pair[K, V], kd, vd *pairDict) ([]byte, error) {
	if pc.key.dict && kd == nil {
		kd = getPairDict()
		defer putPairDict(kd)
	}
	if pc.val.dict && vd == nil {
		vd = getPairDict()
		defer putPairDict(vd)
	}
	buf, err := pc.key.enc(buf, keyCol(pairs), kd)
	if err != nil {
		return nil, err
	}
	return pc.val.enc(buf, valCol(pairs), vd)
}

// fillCols is appendCols' inverse: it decodes the key and value columns
// at the head of data into ps and returns the remaining bytes. The
// columns parse in place from data (which may alias a connection's
// frame buffer or a run's read window) — element decoders copy anything
// they keep.
func (pc *pairCodec[K, V]) fillCols(data []byte, ps []Pair[K, V], kd, vd *pairDict) ([]byte, error) {
	if pc.key.dict && kd == nil {
		kd = getPairDict()
		defer putPairDict(kd)
	}
	if pc.val.dict && vd == nil {
		vd = getPairDict()
		defer putPairDict(vd)
	}
	data, err := pc.key.dec(data, keyCol(ps), kd)
	if err != nil {
		return nil, err
	}
	return pc.val.dec(data, valCol(ps), vd)
}

// --- blob framing -------------------------------------------------------

// frameScratch pools the encode buffers for outbound bulk frames
// (MsgBucket on both sides of the wire, MsgPart on the worker).
// remote.Conn.WriteFrame copies the payload into its buffered writer
// before returning, so a frame buffer can be recycled the moment
// WriteFrame comes back.
type frameScratch struct{ b []byte }

var frameScratchPool = sync.Pool{New: func() any { return &frameScratch{} }}

func getFrameScratch() *frameScratch  { return frameScratchPool.Get().(*frameScratch) }
func putFrameScratch(s *frameScratch) { frameScratchPool.Put(s) }

// checkMarker refuses a blob whose codec marker this build does not
// write; wire blobs and spill blocks share it.
func checkMarker(marker byte) error {
	if marker != pairBlobV2 {
		return fmt.Errorf("mapreduce: pair decode: unknown codec marker 0x%02x", marker)
	}
	return nil
}

// encodePairs appends the versioned pair blob for pairs: the codec
// marker byte, then the v2 columns, written straight into buf with room
// up front for what they take at the least (see pairCap).
func encodePairs[K comparable, V any](buf []byte, pairs []Pair[K, V], pc *pairCodec[K, V]) ([]byte, error) {
	buf = slices.Grow(buf, 1+len(pairs)*pc.min8/8)
	return pc.appendCols(append(buf, pairBlobV2), pairs, nil, nil)
}

// pairCap bounds a wire-declared pair count by the remaining payload —
// the columns carry at least the per-type minimum widths — so a
// corrupted count cannot drive a pre-allocation past the bytes that
// could possibly back it.
func pairCap[K comparable, V any](cur *remote.Cursor, count int, pc *pairCodec[K, V]) int {
	if count < 0 {
		return 0
	}
	min8 := pc.min8
	if min8 <= 0 {
		min8 = 1 // zero-width pairs allocate nothing; still bound the hint
	}
	if bound := len(cur.Rest()) * 8 / min8; count > bound {
		return bound
	}
	return count
}

// decodePairs appends count decoded pairs to out from a v2 blob; any
// other codec marker is an error. No per-pair allocation happens beyond
// the output slice itself.
func decodePairs[K comparable, V any](cur *remote.Cursor, count int, pc *pairCodec[K, V], out []Pair[K, V]) ([]Pair[K, V], error) {
	if count == 0 && len(cur.Rest()) == 0 {
		return out, nil
	}
	marker := cur.Byte()
	if err := cur.Err(); err != nil {
		return out, err
	}
	if err := checkMarker(marker); err != nil {
		return out, err
	}
	data := cur.Rest()
	if count < 0 || count > maxPairCount ||
		(pc.min8 > 0 && uint64(count) > uint64(len(data))*8/uint64(pc.min8)) {
		return out, fmt.Errorf("pair count %d exceeds the %d-byte payload", count, len(data))
	}
	base := len(out)
	out = growPairs(out, count)
	if _, err := pc.fillCols(data, out[base:], nil, nil); err != nil {
		return out[:base], err
	}
	return out, nil
}

// growPairs extends out by n elements, reusing spare capacity (the
// arena's checked-out buckets) when it fits.
func growPairs[K comparable, V any](out []Pair[K, V], n int) []Pair[K, V] {
	if need := len(out) + n; need <= cap(out) {
		return out[:need]
	}
	grown := make([]Pair[K, V], len(out)+n)
	copy(grown, out)
	return grown
}

// --- spill runs ---------------------------------------------------------

// spillBlockRecs is the records-per-block granularity of the v2 spill
// run format: large enough that column overheads amortize, small enough that a block stays well inside the run
// readers' 64 KiB buffers for typical records.
const spillBlockRecs = 512

// A spill run is the spilling shuffle's unit of disk traffic: one cut of
// a partition's buffered pairs, sorted by (key, split, arrival), written
// as blocks of up to spillBlockRecs records,
//
//	frame   := uvarint payloadLen, payload
//	payload := marker byte 0x02, uvarint n, split column, key column, value column
//
// — a wire blob with the record count behind the marker and a split
// column in front. The split column delta-encodes
// each record's map split: a run is sorted by key and then split, so
// the deltas are zero inside a (key, split) stretch and small across
// them. It is all the merge needs besides the keys to restore the
// engine's value order, because runs are cut in arrival order (see
// spillShuffle). Key and value columns use the same lanes as the wire
// blobs, straight off the sorted key and value arrays, but with per-run
// dictionaries: one process writes and reads a run strictly in order,
// so unlike wire frames the dictionary may span blocks, interning each
// distinct string once per run.

// spillRunEnc is the write side of one run: the dictionaries that span
// its blocks and the byte buffers they are staged in. It is used by one
// goroutine at a time (the partition's run writer) and recycled through
// pairCodec.encs, so its buffers grow to steady state once per process,
// not once per run.
type spillRunEnc[K comparable, V any] struct {
	kd, vd *pairDict
	block  []byte // the block being encoded, marker to value column
	out    []byte // framed blocks not yet written
}

func (pc *pairCodec[K, V]) getRunEnc() *spillRunEnc[K, V] {
	if e := pc.encs.get(); e != nil {
		return e
	}
	e := &spillRunEnc[K, V]{}
	if pc.key.dict {
		e.kd = newPairDict()
	}
	if pc.val.dict {
		e.vd = newPairDict()
	}
	return e
}

// putRunEnc recycles a run's encoder once the run is written (or
// abandoned): dictionaries are per-run state and forget their entries,
// the byte buffers keep their grown capacity — that is the point.
func (pc *pairCodec[K, V]) putRunEnc(e *spillRunEnc[K, V]) {
	if e.kd != nil {
		e.kd.reset()
	}
	if e.vd != nil {
		e.vd.reset()
	}
	e.out = e.out[:0]
	pc.encs.put(e)
}

// sliceCol views a whole slice as a column.
func sliceCol[T any](s []T) col {
	if len(s) == 0 {
		return col{}
	}
	return col{unsafe.Pointer(&s[0]), unsafe.Sizeof(s[0]), len(s)}
}

// appendBlock frames one block of the run — parallel slices of at most
// spillBlockRecs sorted keys, values and splits — onto e.out.
func (e *spillRunEnc[K, V]) appendBlock(pc *pairCodec[K, V], keys []K, vals []V, splits []int32) error {
	block := binary.AppendUvarint(append(e.block[:0], pairBlobV2), uint64(len(keys)))
	var prev int32
	for _, s := range splits {
		block = binary.AppendVarint(block, int64(s-prev))
		prev = s
	}
	block, err := pc.key.enc(block, sliceCol(keys), e.kd)
	if err != nil {
		return err
	}
	if block, err = pc.val.enc(block, sliceCol(vals), e.vd); err != nil {
		return err
	}
	e.block = block
	e.out = append(binary.AppendUvarint(e.out, uint64(len(block))), block...)
	return nil
}

// spillRunDec is the read side of one run: a read window over the run's
// extent of its partition's spill file and the dictionaries mirrored
// from the blocks read so far. It is used by the one goroutine merging
// that run and recycled through pairCodec.decs.
type spillRunDec[K comparable, V any] struct {
	kd, vd *pairDict
	src    io.ReaderAt
	off    int64  // next unread byte of the run in src
	left   int64  // bytes of the run not yet read into buf
	buf    []byte // read window; buf[r:w] is read but not yet decoded
	r, w   int
}

// spillRunReadBuf is how much of a run one read asks for. Bounded (k
// runs merge with k such windows) but several blocks long, so a merge
// reads each run in sequential slices.
const spillRunReadBuf = 16 << 10

// getRunDec returns a decoder positioned at the start of the n-byte run
// at offset off of f.
func (pc *pairCodec[K, V]) getRunDec(f io.ReaderAt, off, n int64) *spillRunDec[K, V] {
	d := pc.decs.get()
	if d == nil {
		d = &spillRunDec[K, V]{}
		if pc.key.dict {
			d.kd = newPairDict()
		}
		if pc.val.dict {
			d.vd = newPairDict()
		}
	}
	d.src, d.off, d.left, d.r, d.w = f, off, n, 0, 0
	return d
}

// putRunDec recycles a run's decoder when its merge is done with it;
// buf keeps its grown capacity.
func (pc *pairCodec[K, V]) putRunDec(d *spillRunDec[K, V]) {
	if d.kd != nil {
		d.kd.reset()
	}
	if d.vd != nil {
		d.vd.reset()
	}
	d.src = nil
	pc.decs.put(d)
}

var errSpillTruncated = fmt.Errorf("mapreduce: spill decode: truncated run file")

// need makes the run's next n bytes available as d.buf[d.r : d.r+n],
// reading ahead by up to a window. The run's extent is known, so a
// length the run cannot back — a forged frame prefix — is refused
// before it sizes anything.
func (d *spillRunDec[K, V]) need(n int) error {
	have := d.w - d.r
	if have >= n {
		return nil
	}
	if int64(n-have) > d.left {
		return errSpillTruncated
	}
	if cap(d.buf) < n {
		// Headroom past n: block frames drift a few bytes in size, and
		// an exact-fit window would realloc on every slightly-larger one.
		grown := make([]byte, max(n+n/4, spillRunReadBuf))
		copy(grown, d.buf[d.r:d.w])
		d.buf = grown
	} else {
		copy(d.buf, d.buf[d.r:d.w])
	}
	d.buf = d.buf[:cap(d.buf)]
	d.r, d.w = 0, have
	m, err := d.src.ReadAt(d.buf[have:have+int(min(int64(len(d.buf)-have), d.left))], d.off)
	d.off, d.left, d.w = d.off+int64(m), d.left-int64(m), have+m
	if d.w < n {
		if err == nil || err == io.EOF {
			err = errSpillTruncated
		}
		return err
	}
	return nil
}

// readBlock decodes the run's next block into the head of the column
// arrays (each at least spillBlockRecs long), computes the key images
// through img, and returns the block's record count; io.EOF at a block
// boundary is the clean end of the run. nsplits is the job's number of
// map splits: a split id outside it is corruption.
func (d *spillRunDec[K, V]) readBlock(pc *pairCodec[K, V], img func(K) uint64, nsplits int, keys []K, vals []V, splits []int32, imgs []uint64) (int, error) {
	rest := int64(d.w-d.r) + d.left
	if rest == 0 {
		return 0, io.EOF
	}
	if err := d.need(int(min(rest, binary.MaxVarintLen64))); err != nil {
		return 0, err
	}
	frameLen, m := binary.Uvarint(d.buf[d.r:d.w])
	if m == 0 {
		return 0, errSpillTruncated // the run ends inside the prefix
	}
	if m < 0 || frameLen < 2 || frameLen > maxPairCount {
		return 0, fmt.Errorf("mapreduce: spill decode: %d-byte block frame", frameLen)
	}
	d.r += m
	if err := d.need(int(frameLen)); err != nil {
		return 0, err
	}
	frame := d.buf[d.r : d.r+int(frameLen)]
	d.r += int(frameLen)
	cnt, m := binary.Uvarint(frame[1:])
	if m <= 0 || cnt == 0 || cnt > spillBlockRecs {
		return 0, fmt.Errorf("mapreduce: spill decode: block of %d records", cnt)
	}
	n := int(cnt)
	if err := checkMarker(frame[0]); err != nil {
		return 0, err
	}
	data := frame[1+m:]
	var prev int32
	for i := range splits[:n] {
		delta, m := binary.Varint(data)
		if m <= 0 {
			return 0, errSpillShort
		}
		data = data[m:]
		prev += int32(delta)
		if prev < 0 || int(prev) >= nsplits {
			return 0, fmt.Errorf("mapreduce: spill decode: split %d of %d", prev, nsplits)
		}
		splits[i] = prev
	}
	data, err := pc.key.dec(data, sliceCol(keys[:n]), d.kd)
	if err != nil {
		return 0, err
	}
	if _, err = pc.val.dec(data, sliceCol(vals[:n]), d.vd); err != nil {
		return 0, err
	}
	for i, k := range keys[:n] {
		imgs[i] = img(k)
	}
	return n, nil
}
