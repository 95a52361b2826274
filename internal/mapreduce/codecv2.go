package mapreduce

import (
	"bytes"
	"compress/flate"
	"encoding"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/mapreduce/remote"
)

// This file implements codec v2, the batch encoding shared by every
// bulk byte path: dist bucket frames, checkpoint/seed mirror blobs, and
// (through spillBlockCodec in spillcodec.go) extsort run files. The
// paper's cost model is dominated by bytes moved per round, and a
// per-pair row framing — uvarint key length, key, uvarint value length,
// value — pays two length prefixes per pair and encodes every id at
// full varint width. v2 encodes a batch column-wise:
//
//	blob     := marker byte, payload
//	marker   := 0x02 (v2 columns) | 0x03 (v2 + flate)
//	payload  := key column, value column          (marker 0x02)
//	         |  uvarint rawLen, flate(columns)    (marker 0x03)
//
// Column encodings are resolved per concrete type (named types
// included, via reflect.Kind plus a layout-preserving slice cast):
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
//   - float64/float32: raw little-endian words (8/4 bytes).
//   - bools: bit-packed, eight per byte.
//   - [2]int32 (edge endpoints): two delta sub-columns.
//   - empty structs: zero bytes.
//   - everything else (BinaryMarshaler, slices, gob fallback):
//     length-prefixed elements in a column, through the element codec's
//     per-stream instantiation (forStream) so the gob fallback reuses
//     one en/decoder per column instead of one per record.
//
// A blob is fully self-contained: the coordinator relays chained-mode
// bucket frames between worker connections verbatim, stores MsgCkpt
// mirror blobs raw, and re-streams them as MsgSeed frames to arbitrary
// workers — so no decoder state (dictionary included) may span frames
// on the wire. The per-connection dictionary the design sketch called
// for is therefore realized per-frame on the wire and per-run on the
// spill path, where one process writes and reads the stream in order.
//
// The marker byte names the payload form; a marker this build does not
// write (0x01 was the retired row framing) is a decode error, and
// remote.Proto gates mixed-build clusters.

// Pair-blob codec markers (the first byte of every versioned blob).
const (
	pairBlobV2      byte = 0x02 // v2 columnar: key column, then value column
	pairBlobV2Flate byte = 0x03 // v2 columnar behind per-blob flate compression
)

// dictMaxEntries caps a string dictionary; further distinct strings
// escape to inline tokens rather than growing the table without bound.
const dictMaxEntries = 1 << 16

// compressMinLen is the smallest payload worth deflating: below this,
// the flate header alone erases any win.
const compressMinLen = 64

// maxPairCount bounds any wire-declared pair count after the per-type
// minimum-width check; a count past this is corruption regardless.
const maxPairCount = 1 << 31

// maxInflateRatio is DEFLATE's expansion ceiling (a 258-byte match costs
// at least two bits): a declared raw length past it is corruption, and
// checking it first keeps a forged length prefix from sizing the
// inflate buffer.
const maxInflateRatio = 1032

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

var pairDictPool = sync.Pool{New: func() any { return &pairDict{idx: make(map[string]uint32)} }}

func getPairDict() *pairDict  { return pairDictPool.Get().(*pairDict) }
func putPairDict(d *pairDict) { d.reset(); pairDictPool.Put(d) }

// newPairDict returns an unpooled dictionary for per-run spill state.
func newPairDict() *pairDict { return &pairDict{idx: make(map[string]uint32)} }

// pairColEnc appends one column (all keys or all values of ps) to buf.
// pairColDec fills the same column of ps from data and returns the
// remaining bytes. The dictionary argument is nil for columns that do
// not intern strings.
type pairColEnc[K comparable, V any] func(buf []byte, ps []Pair[K, V], d *pairDict) ([]byte, error)
type pairColDec[K comparable, V any] func(data []byte, ps []Pair[K, V], d *pairDict) ([]byte, error)

// pairColCodec is the resolved v2 column codec for one (K, V) pair
// type, cached process-wide (resolution is deterministic per type).
type pairColCodec[K comparable, V any] struct {
	encK, encV pairColEnc[K, V]
	decK, decV pairColDec[K, V]
	kDict      bool // key column interns strings
	vDict      bool // value column interns strings

	// encFree and decFree recycle spill run en/decoders. They live
	// here — not on the per-job spillBlockCodec — because jobs are
	// born and die with their shuffles while this codec is cached for
	// the process lifetime: a run en/decoder's grown buffers then
	// survive across jobs, not just across one job's runs. Bounded
	// free lists with strong references, not a sync.Pool: a spilling
	// job allocates tens of MB between runs, so the GC fires often
	// enough to wipe a sync.Pool before the next run could reuse
	// anything. Pooled en/decoders carry no job state; the per-job
	// codec handle is re-stamped on every get.
	mu      sync.Mutex
	encFree []*spillRunEnc[K, V]
	decFree []*spillRunDec[K, V]
}

// spillFreeCap bounds each of a pair type's en/decoder free lists. A
// k-way merge parks up to k decoders when it drains, so the cap is
// sized to a realistically wide merge; beyond it, extras fall to the
// GC. The retained memory per entry is the staging block (spillBlockRecs
// pairs and seqs, cleared of pointers) plus the grown byte buffers.
const spillFreeCap = 32

func (pc *pairColCodec[K, V]) getEnc() *spillRunEnc[K, V] {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if n := len(pc.encFree); n > 0 {
		e := pc.encFree[n-1]
		pc.encFree[n-1] = nil
		pc.encFree = pc.encFree[:n-1]
		return e
	}
	return nil
}

func (pc *pairColCodec[K, V]) putEnc(e *spillRunEnc[K, V]) {
	pc.mu.Lock()
	if len(pc.encFree) < spillFreeCap {
		pc.encFree = append(pc.encFree, e)
	}
	pc.mu.Unlock()
}

func (pc *pairColCodec[K, V]) getDec() *spillRunDec[K, V] {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if n := len(pc.decFree); n > 0 {
		d := pc.decFree[n-1]
		pc.decFree[n-1] = nil
		pc.decFree = pc.decFree[:n-1]
		return d
	}
	return nil
}

func (pc *pairColCodec[K, V]) putDec(d *spillRunDec[K, V]) {
	pc.mu.Lock()
	if len(pc.decFree) < spillFreeCap {
		pc.decFree = append(pc.decFree, d)
	}
	pc.mu.Unlock()
}

var pairColCache sync.Map // reflect.Type of *Pair[K, V] -> *pairColCodec[K, V]

// pairColsFor returns the cached column codec for Pair[K, V]; one map
// load per call, so the blob codecs can resolve at the call site
// without threading a codec handle through every frame path.
func pairColsFor[K comparable, V any](kc spillCodec[K], vc spillCodec[V]) *pairColCodec[K, V] {
	key := reflect.TypeOf((*Pair[K, V])(nil))
	if v, ok := pairColCache.Load(key); ok {
		return v.(*pairColCodec[K, V])
	}
	pc := &pairColCodec[K, V]{}
	pc.encK, pc.decK, pc.kDict = resolveKeyCol[K, V](kc)
	pc.encV, pc.decV, pc.vDict = resolveValCol[K, V](vc)
	v, _ := pairColCache.LoadOrStore(key, pc)
	return v.(*pairColCodec[K, V])
}

// colIntKind reports whether k is an integer kind the delta column
// handles (paired with a size check selecting the 4- or 8-byte lane).
func colIntKind(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return true
	}
	return false
}

// minEnc8 is a type's minimum encoded width in eighths of a byte, the
// lower bound a column can reach per element (bit-packed
// bools reach one bit; empty structs reach zero). Used to bound
// wire-declared pair counts before any allocation.
func minEnc8(t reflect.Type) int {
	if t == nil {
		return 8
	}
	switch t.Kind() {
	case reflect.Bool:
		return 1
	case reflect.Struct:
		if t.NumField() == 0 {
			return 0
		}
		return 8
	case reflect.Float64:
		return 64
	case reflect.Float32:
		return 32
	case reflect.Array:
		if colIntKind(t.Elem().Kind()) {
			return 8 * t.Len()
		}
		return 8
	default:
		return 8
	}
}

// resolveKeyCol picks the key-column codec for K. Types with their own
// BinaryMarshaler keep it (through the generic column) rather than
// being reinterpreted by kind.
func resolveKeyCol[K comparable, V any](kc spillCodec[K]) (pairColEnc[K, V], pairColDec[K, V], bool) {
	var zero K
	t := reflect.TypeOf(zero)
	if _, isM := any(zero).(encoding.BinaryMarshaler); !isM && t != nil {
		switch k := t.Kind(); {
		case colIntKind(k) && t.Size() == 4:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encDeltaKey(buf, *(*[]Pair[int32, V])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decDeltaKey(data, *(*[]Pair[int32, V])(unsafe.Pointer(&ps)))
				}, false
		case colIntKind(k) && t.Size() == 8:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encDeltaKey(buf, *(*[]Pair[int64, V])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decDeltaKey(data, *(*[]Pair[int64, V])(unsafe.Pointer(&ps)))
				}, false
		case k == reflect.Float64:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encF64Key(buf, *(*[]Pair[float64, V])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decF64Key(data, *(*[]Pair[float64, V])(unsafe.Pointer(&ps)))
				}, false
		case k == reflect.Bool:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encBoolKey(buf, *(*[]Pair[bool, V])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decBoolKey(data, *(*[]Pair[bool, V])(unsafe.Pointer(&ps)))
				}, false
		case k == reflect.String:
			return func(buf []byte, ps []Pair[K, V], d *pairDict) ([]byte, error) {
					return encStrKey(buf, *(*[]Pair[string, V])(unsafe.Pointer(&ps)), d), nil
				}, func(data []byte, ps []Pair[K, V], d *pairDict) ([]byte, error) {
					return decStrKey(data, *(*[]Pair[string, V])(unsafe.Pointer(&ps)), d)
				}, true
		case k == reflect.Array && t.Len() == 2 && t.Elem().Kind() == reflect.Int32 && t.Size() == 8:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encEdgeKey(buf, *(*[]Pair[[2]int32, V])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decEdgeKey(data, *(*[]Pair[[2]int32, V])(unsafe.Pointer(&ps)))
				}, false
		case k == reflect.Struct && t.NumField() == 0:
			return func(buf []byte, _ []Pair[K, V], _ *pairDict) ([]byte, error) {
					return buf, nil
				}, func(data []byte, _ []Pair[K, V], _ *pairDict) ([]byte, error) {
					return data, nil
				}, false
		}
	}
	return genericKeyCol[K, V](kc)
}

// resolveValCol mirrors resolveKeyCol for the value column.
func resolveValCol[K comparable, V any](vc spillCodec[V]) (pairColEnc[K, V], pairColDec[K, V], bool) {
	var zero V
	t := reflect.TypeOf(zero)
	if _, isM := any(zero).(encoding.BinaryMarshaler); !isM && t != nil {
		switch k := t.Kind(); {
		case colIntKind(k) && t.Size() == 4:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encDeltaVal(buf, *(*[]Pair[K, int32])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decDeltaVal(data, *(*[]Pair[K, int32])(unsafe.Pointer(&ps)))
				}, false
		case colIntKind(k) && t.Size() == 8:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encDeltaVal(buf, *(*[]Pair[K, int64])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decDeltaVal(data, *(*[]Pair[K, int64])(unsafe.Pointer(&ps)))
				}, false
		case k == reflect.Float64:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encF64Val(buf, *(*[]Pair[K, float64])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decF64Val(data, *(*[]Pair[K, float64])(unsafe.Pointer(&ps)))
				}, false
		case k == reflect.Bool:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encBoolVal(buf, *(*[]Pair[K, bool])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decBoolVal(data, *(*[]Pair[K, bool])(unsafe.Pointer(&ps)))
				}, false
		case k == reflect.String:
			return func(buf []byte, ps []Pair[K, V], d *pairDict) ([]byte, error) {
					return encStrVal(buf, *(*[]Pair[K, string])(unsafe.Pointer(&ps)), d), nil
				}, func(data []byte, ps []Pair[K, V], d *pairDict) ([]byte, error) {
					return decStrVal(data, *(*[]Pair[K, string])(unsafe.Pointer(&ps)), d)
				}, true
		case k == reflect.Array && t.Len() == 2 && t.Elem().Kind() == reflect.Int32 && t.Size() == 8:
			return func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return encEdgeVal(buf, *(*[]Pair[K, [2]int32])(unsafe.Pointer(&ps))), nil
				}, func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
					return decEdgeVal(data, *(*[]Pair[K, [2]int32])(unsafe.Pointer(&ps)))
				}, false
		case k == reflect.Struct && t.NumField() == 0:
			return func(buf []byte, _ []Pair[K, V], _ *pairDict) ([]byte, error) {
					return buf, nil
				}, func(data []byte, _ []Pair[K, V], _ *pairDict) ([]byte, error) {
					return data, nil
				}, false
		}
	}
	return genericValCol[K, V](vc)
}

// The strided column bodies below run tight loops directly over the
// pair slice — no gather scratch, no per-element closure calls. Named
// types reach them through the unsafe slice casts above, which only
// reinterpret between identically laid out element types (same kind,
// same size, same field order in Pair).

// Integer deltas work in uint64 space with wraparound, so one body
// serves signed and unsigned interpretations of each width exactly.
func encDeltaKey[N int32 | int64, V any](buf []byte, ps []Pair[N, V]) []byte {
	var prev uint64
	for i := range ps {
		cur := uint64(int64(ps[i].Key))
		buf = binary.AppendVarint(buf, int64(cur-prev))
		prev = cur
	}
	return buf
}

func decDeltaKey[N int32 | int64, V any](data []byte, ps []Pair[N, V]) ([]byte, error) {
	var prev uint64
	for i := range ps {
		d, n := binary.Varint(data)
		if n <= 0 {
			return nil, errSpillShort
		}
		data = data[n:]
		prev += uint64(d)
		ps[i].Key = N(int64(prev))
	}
	return data, nil
}

func encDeltaVal[K comparable, N int32 | int64](buf []byte, ps []Pair[K, N]) []byte {
	var prev uint64
	for i := range ps {
		cur := uint64(int64(ps[i].Value))
		buf = binary.AppendVarint(buf, int64(cur-prev))
		prev = cur
	}
	return buf
}

func decDeltaVal[K comparable, N int32 | int64](data []byte, ps []Pair[K, N]) ([]byte, error) {
	var prev uint64
	for i := range ps {
		d, n := binary.Varint(data)
		if n <= 0 {
			return nil, errSpillShort
		}
		data = data[n:]
		prev += uint64(d)
		ps[i].Value = N(int64(prev))
	}
	return data, nil
}

func encF64Key[V any](buf []byte, ps []Pair[float64, V]) []byte {
	for i := range ps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ps[i].Key))
	}
	return buf
}

func decF64Key[V any](data []byte, ps []Pair[float64, V]) ([]byte, error) {
	if len(data) < 8*len(ps) {
		return nil, errSpillShort
	}
	for i := range ps {
		ps[i].Key = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return data[8*len(ps):], nil
}

func encF64Val[K comparable](buf []byte, ps []Pair[K, float64]) []byte {
	for i := range ps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ps[i].Value))
	}
	return buf
}

func decF64Val[K comparable](data []byte, ps []Pair[K, float64]) ([]byte, error) {
	if len(data) < 8*len(ps) {
		return nil, errSpillShort
	}
	for i := range ps {
		ps[i].Value = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return data[8*len(ps):], nil
}

func encBoolKey[V any](buf []byte, ps []Pair[bool, V]) []byte {
	var b byte
	var nb uint
	for i := range ps {
		if ps[i].Key {
			b |= 1 << nb
		}
		if nb++; nb == 8 {
			buf = append(buf, b)
			b, nb = 0, 0
		}
	}
	if nb > 0 {
		buf = append(buf, b)
	}
	return buf
}

func decBoolKey[V any](data []byte, ps []Pair[bool, V]) ([]byte, error) {
	nbytes := (len(ps) + 7) / 8
	if len(data) < nbytes {
		return nil, errSpillShort
	}
	for i := range ps {
		ps[i].Key = data[i/8]&(1<<(i%8)) != 0
	}
	return data[nbytes:], nil
}

func encBoolVal[K comparable](buf []byte, ps []Pair[K, bool]) []byte {
	var b byte
	var nb uint
	for i := range ps {
		if ps[i].Value {
			b |= 1 << nb
		}
		if nb++; nb == 8 {
			buf = append(buf, b)
			b, nb = 0, 0
		}
	}
	if nb > 0 {
		buf = append(buf, b)
	}
	return buf
}

func decBoolVal[K comparable](data []byte, ps []Pair[K, bool]) ([]byte, error) {
	nbytes := (len(ps) + 7) / 8
	if len(data) < nbytes {
		return nil, errSpillShort
	}
	for i := range ps {
		ps[i].Value = data[i/8]&(1<<(i%8)) != 0
	}
	return data[nbytes:], nil
}

func encEdgeKey[V any](buf []byte, ps []Pair[[2]int32, V]) []byte {
	var prev int64
	for i := range ps {
		cur := int64(ps[i].Key[0])
		buf = binary.AppendVarint(buf, cur-prev)
		prev = cur
	}
	prev = 0
	for i := range ps {
		cur := int64(ps[i].Key[1])
		buf = binary.AppendVarint(buf, cur-prev)
		prev = cur
	}
	return buf
}

func decEdgeKey[V any](data []byte, ps []Pair[[2]int32, V]) ([]byte, error) {
	var prev int64
	for i := range ps {
		d, n := binary.Varint(data)
		if n <= 0 {
			return nil, errSpillShort
		}
		data = data[n:]
		prev += d
		ps[i].Key[0] = int32(prev)
	}
	prev = 0
	for i := range ps {
		d, n := binary.Varint(data)
		if n <= 0 {
			return nil, errSpillShort
		}
		data = data[n:]
		prev += d
		ps[i].Key[1] = int32(prev)
	}
	return data, nil
}

func encEdgeVal[K comparable](buf []byte, ps []Pair[K, [2]int32]) []byte {
	var prev int64
	for i := range ps {
		cur := int64(ps[i].Value[0])
		buf = binary.AppendVarint(buf, cur-prev)
		prev = cur
	}
	prev = 0
	for i := range ps {
		cur := int64(ps[i].Value[1])
		buf = binary.AppendVarint(buf, cur-prev)
		prev = cur
	}
	return buf
}

func decEdgeVal[K comparable](data []byte, ps []Pair[K, [2]int32]) ([]byte, error) {
	var prev int64
	for i := range ps {
		d, n := binary.Varint(data)
		if n <= 0 {
			return nil, errSpillShort
		}
		data = data[n:]
		prev += d
		ps[i].Value[0] = int32(prev)
	}
	prev = 0
	for i := range ps {
		d, n := binary.Varint(data)
		if n <= 0 {
			return nil, errSpillShort
		}
		data = data[n:]
		prev += d
		ps[i].Value[1] = int32(prev)
	}
	return data, nil
}

// String columns: uvarint count of dictionary entries new to this
// batch, the new entries (uvarint length + bytes, in first-assigned
// order so the decoder mirror matches), then one token per pair —
// token 0 escapes to an inline string (uvarint length + bytes follow),
// token t>0 references dictionary entry t-1. On decode each distinct
// string is allocated once and shared by every pair referencing it.
func encStrKey[V any](buf []byte, ps []Pair[string, V], d *pairDict) []byte {
	toks := d.tokens[:0]
	base := d.emitted
	for i := range ps {
		s := ps[i].Key
		if id, ok := d.idx[s]; ok {
			toks = append(toks, id+1)
		} else if len(d.entries) < dictMaxEntries {
			id := uint32(len(d.entries))
			d.idx[s] = id
			d.entries = append(d.entries, s)
			toks = append(toks, id+1)
		} else {
			toks = append(toks, 0)
		}
	}
	d.tokens = toks
	buf = binary.AppendUvarint(buf, uint64(len(d.entries)-base))
	for _, s := range d.entries[base:] {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	d.emitted = len(d.entries)
	for i, tok := range toks {
		buf = binary.AppendUvarint(buf, uint64(tok))
		if tok == 0 {
			s := ps[i].Key
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf
}

func decStrKey[V any](data []byte, ps []Pair[string, V], d *pairDict) ([]byte, error) {
	data, err := decDictEntries(data, d)
	if err != nil {
		return nil, err
	}
	for i := range ps {
		s, rest, err := decStrToken(data, d)
		if err != nil {
			return nil, err
		}
		ps[i].Key = s
		data = rest
	}
	return data, nil
}

func encStrVal[K comparable](buf []byte, ps []Pair[K, string], d *pairDict) []byte {
	toks := d.tokens[:0]
	base := d.emitted
	for i := range ps {
		s := ps[i].Value
		if id, ok := d.idx[s]; ok {
			toks = append(toks, id+1)
		} else if len(d.entries) < dictMaxEntries {
			id := uint32(len(d.entries))
			d.idx[s] = id
			d.entries = append(d.entries, s)
			toks = append(toks, id+1)
		} else {
			toks = append(toks, 0)
		}
	}
	d.tokens = toks
	buf = binary.AppendUvarint(buf, uint64(len(d.entries)-base))
	for _, s := range d.entries[base:] {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	d.emitted = len(d.entries)
	for i, tok := range toks {
		buf = binary.AppendUvarint(buf, uint64(tok))
		if tok == 0 {
			s := ps[i].Value
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf
}

func decStrVal[K comparable](data []byte, ps []Pair[K, string], d *pairDict) ([]byte, error) {
	data, err := decDictEntries(data, d)
	if err != nil {
		return nil, err
	}
	for i := range ps {
		s, rest, err := decStrToken(data, d)
		if err != nil {
			return nil, err
		}
		ps[i].Value = s
		data = rest
	}
	return data, nil
}

// decDictEntries mirrors one batch's new dictionary entries into d.
func decDictEntries(data []byte, d *pairDict) ([]byte, error) {
	nNew, n := binary.Uvarint(data)
	if n <= 0 || nNew > uint64(len(data)-n) {
		return nil, errSpillShort
	}
	if uint64(len(d.entries))+nNew > dictMaxEntries {
		return nil, fmt.Errorf("mapreduce: pair decode: dictionary overflow (%d entries)", uint64(len(d.entries))+nNew)
	}
	data = data[n:]
	for j := uint64(0); j < nNew; j++ {
		l, m := binary.Uvarint(data)
		if m <= 0 || l > uint64(len(data)-m) {
			return nil, errSpillShort
		}
		d.entries = append(d.entries, string(data[m:m+int(l)]))
		data = data[m+int(l):]
	}
	return data, nil
}

// decStrToken resolves one token: a dictionary ref or an inline escape.
func decStrToken(data []byte, d *pairDict) (string, []byte, error) {
	tok, n := binary.Uvarint(data)
	if n <= 0 {
		return "", nil, errSpillShort
	}
	data = data[n:]
	if tok == 0 {
		l, m := binary.Uvarint(data)
		if m <= 0 || l > uint64(len(data)-m) {
			return "", nil, errSpillShort
		}
		return string(data[m : m+int(l)]), data[m+int(l):], nil
	}
	if tok-1 >= uint64(len(d.entries)) {
		return "", nil, fmt.Errorf("mapreduce: pair decode: dictionary ref %d of %d", tok-1, len(d.entries))
	}
	return d.entries[tok-1], data, nil
}

// genericKeyCol is the column fallback for every type without a
// kind-based lane: length-prefixed elements through the resolved
// element codec. forStream gives stateful codecs (the gob
// fallback) one en/decoder per column instead of one per record.
func genericKeyCol[K comparable, V any](kc spillCodec[K]) (pairColEnc[K, V], pairColDec[K, V], bool) {
	enc := func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
		ec := kc.forStream()
		var scratch []byte
		for i := range ps {
			var err error
			if scratch, err = ec.enc(scratch[:0], ps[i].Key); err != nil {
				return nil, err
			}
			buf = binary.AppendUvarint(buf, uint64(len(scratch)))
			buf = append(buf, scratch...)
		}
		return buf, nil
	}
	dec := func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
		dc := kc.forStream()
		for i := range ps {
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return nil, errSpillShort
			}
			k, err := dc.dec(data[n : n+int(l)])
			if err != nil {
				return nil, err
			}
			ps[i].Key = k
			data = data[n+int(l):]
		}
		return data, nil
	}
	return enc, dec, false
}

func genericValCol[K comparable, V any](vc spillCodec[V]) (pairColEnc[K, V], pairColDec[K, V], bool) {
	enc := func(buf []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
		ec := vc.forStream()
		var scratch []byte
		for i := range ps {
			var err error
			if scratch, err = ec.enc(scratch[:0], ps[i].Value); err != nil {
				return nil, err
			}
			buf = binary.AppendUvarint(buf, uint64(len(scratch)))
			buf = append(buf, scratch...)
		}
		return buf, nil
	}
	dec := func(data []byte, ps []Pair[K, V], _ *pairDict) ([]byte, error) {
		dc := vc.forStream()
		for i := range ps {
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return nil, errSpillShort
			}
			v, err := dc.dec(data[n : n+int(l)])
			if err != nil {
				return nil, err
			}
			ps[i].Value = v
			data = data[n+int(l):]
		}
		return data, nil
	}
	return enc, dec, false
}

// --- blob-level API ---------------------------------------------------

// blobScratch pools the staging buffers the compressed paths need (the
// uncompressed column image on encode, the inflated image on decode).
type blobScratch struct{ b []byte }

var blobScratchPool = sync.Pool{New: func() any { return &blobScratch{} }}

func getBlobScratch() *blobScratch  { return blobScratchPool.Get().(*blobScratch) }
func putBlobScratch(s *blobScratch) { blobScratchPool.Put(s) }

// frameScratch pools the encode buffers for outbound bulk frames
// (MsgBucket on both sides of the wire, MsgReduced on the worker).
// remote.Conn.WriteFrame copies the payload into its buffered writer
// before returning, so a frame buffer can be recycled the moment
// WriteFrame comes back.
type frameScratch struct{ b []byte }

var frameScratchPool = sync.Pool{New: func() any { return &frameScratch{} }}

func getFrameScratch() *frameScratch  { return frameScratchPool.Get().(*frameScratch) }
func putFrameScratch(s *frameScratch) { frameScratchPool.Put(s) }

// sliceWriter adapts an append target to io.Writer for the pooled
// flate writers.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

var flateWriterPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

type flateReader struct {
	br bytes.Reader
	r  io.ReadCloser
}

var flateReaderPool = sync.Pool{New: func() any {
	fr := &flateReader{}
	fr.r = flate.NewReader(&fr.br)
	return fr
}}

// deflateBlock appends the flate image of src to dst.
func deflateBlock(dst []byte, src []byte) ([]byte, error) {
	sw := &sliceWriter{b: dst}
	w := flateWriterPool.Get().(*flate.Writer)
	w.Reset(sw)
	if _, err := w.Write(src); err != nil {
		flateWriterPool.Put(w)
		return nil, err
	}
	err := w.Close()
	flateWriterPool.Put(w)
	if err != nil {
		return nil, err
	}
	return sw.b, nil
}

// inflateBlock fills dst (already sized to the raw length) from the
// flate image in src.
func inflateBlock(dst []byte, src []byte) error {
	fr := flateReaderPool.Get().(*flateReader)
	fr.br.Reset(src)
	if err := fr.r.(flate.Resetter).Reset(&fr.br, nil); err != nil {
		flateReaderPool.Put(fr)
		return err
	}
	_, err := io.ReadFull(fr.r, dst)
	flateReaderPool.Put(fr)
	if err != nil {
		return fmt.Errorf("mapreduce: pair decode: inflate: %w", err)
	}
	return nil
}

// appendPairCols appends the key and value columns of pairs using the
// given dictionaries (nil for self-contained blobs; the wire path
// substitutes pooled per-frame dictionaries).
func appendPairCols[K comparable, V any](buf []byte, pairs []Pair[K, V], pc *pairColCodec[K, V], kd, vd *pairDict) ([]byte, error) {
	if pc.kDict && kd == nil {
		kd = getPairDict()
		defer putPairDict(kd)
	}
	if pc.vDict && vd == nil {
		vd = getPairDict()
		defer putPairDict(vd)
	}
	buf, err := pc.encK(buf, pairs, kd)
	if err != nil {
		return nil, err
	}
	return pc.encV(buf, pairs, vd)
}

// encodePairs appends the versioned pair blob for pairs: a codec marker
// byte, then the v2 columnar payload, deflated when compress is set and
// the payload is both large enough to matter and actually shrinks.
// saved, when non-nil, accrues the bytes compression avoided.
func encodePairs[K comparable, V any](buf []byte, pairs []Pair[K, V], kc spillCodec[K], vc spillCodec[V], compress bool, saved *atomic.Int64) ([]byte, error) {
	pc := pairColsFor[K, V](kc, vc)
	if !compress {
		buf = append(buf, pairBlobV2)
		return appendPairCols(buf, pairs, pc, nil, nil)
	}
	scratch := getBlobScratch()
	defer putBlobScratch(scratch)
	raw, err := appendPairCols(scratch.b[:0], pairs, pc, nil, nil)
	scratch.b = raw
	if err != nil {
		return nil, err
	}
	if len(raw) < compressMinLen {
		buf = append(buf, pairBlobV2)
		return append(buf, raw...), nil
	}
	mark := len(buf)
	buf = append(buf, pairBlobV2Flate)
	buf = binary.AppendUvarint(buf, uint64(len(raw)))
	buf, err = deflateBlock(buf, raw)
	if err != nil {
		return nil, err
	}
	if comp := len(buf) - mark - 1; comp >= len(raw) {
		// Incompressible batch: ship the plain columns instead.
		buf = append(buf[:mark], pairBlobV2)
		return append(buf, raw...), nil
	} else if saved != nil {
		saved.Add(int64(len(raw) - comp))
	}
	return buf, nil
}

// pairCap bounds a wire-declared pair count by the remaining payload —
// the columns carry at least the per-type minimum widths — so a
// corrupted count cannot drive a pre-allocation past the bytes that
// could possibly back it. (For compressed blobs the bound undershoots the raw image;
// it is a sizing hint, decode grows the slice as needed.)
func pairCap[K comparable, V any](cur *remote.Cursor, count int, kc spillCodec[K], vc spillCodec[V]) int {
	if count < 0 {
		return 0
	}
	min8 := kc.min8 + vc.min8
	if min8 <= 0 {
		min8 = 1 // zero-width pairs allocate nothing; still bound the hint
	}
	if bound := len(cur.Rest()) * 8 / min8; count > bound {
		return bound
	}
	return count
}

// decodePairs appends count decoded pairs to out, dispatching on the
// blob's codec marker: v2 columns, plain or deflated. Any other marker
// is an error.
func decodePairs[K comparable, V any](cur *remote.Cursor, count int, kc spillCodec[K], vc spillCodec[V], out []Pair[K, V]) ([]Pair[K, V], error) {
	if count == 0 && len(cur.Rest()) == 0 {
		return out, nil
	}
	marker := cur.Byte()
	if err := cur.Err(); err != nil {
		return out, err
	}
	switch marker {
	case pairBlobV2:
		return decodePairCols(cur.Rest(), count, kc, vc, out)
	case pairBlobV2Flate:
		rawLen := cur.Uvarint()
		if err := cur.Err(); err != nil {
			return out, err
		}
		comp := cur.Rest()
		if rawLen > maxPairCount || rawLen > uint64(len(comp))*maxInflateRatio {
			return out, fmt.Errorf("mapreduce: pair decode: %d-byte raw image declared by a %d-byte deflate stream", rawLen, len(comp))
		}
		scratch := getBlobScratch()
		defer putBlobScratch(scratch)
		if uint64(cap(scratch.b)) < rawLen {
			scratch.b = make([]byte, rawLen)
		}
		scratch.b = scratch.b[:rawLen]
		if err := inflateBlock(scratch.b, comp); err != nil {
			return out, err
		}
		return decodePairCols(scratch.b, count, kc, vc, out)
	default:
		return out, fmt.Errorf("mapreduce: pair decode: unknown codec marker 0x%02x", marker)
	}
}

// decodePairCols decodes the v2 column image in data, appending count
// pairs to out. The columns parse in place from data (which may alias
// a connection's frame buffer or the pooled inflate scratch) — element
// decoders copy anything they keep, so no per-pair allocation happens
// beyond the output slice itself.
func decodePairCols[K comparable, V any](data []byte, count int, kc spillCodec[K], vc spillCodec[V], out []Pair[K, V]) ([]Pair[K, V], error) {
	pc := pairColsFor[K, V](kc, vc)
	min8 := kc.min8 + vc.min8
	if count < 0 || count > maxPairCount ||
		(min8 > 0 && uint64(count) > uint64(len(data))*8/uint64(min8)) {
		return out, fmt.Errorf("pair count %d exceeds the %d-byte payload", count, len(data))
	}
	base := len(out)
	out = growPairs(out, count)
	ps := out[base:]
	var kd, vd *pairDict
	if pc.kDict {
		kd = getPairDict()
		defer putPairDict(kd)
	}
	if pc.vDict {
		vd = getPairDict()
		defer putPairDict(vd)
	}
	data, err := pc.decK(data, ps, kd)
	if err != nil {
		return out[:base], err
	}
	if _, err = pc.decV(data, ps, vd); err != nil {
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
