package mapreduce

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"unsafe"
)

// Column lanes of codec v2 (the format is described in codecv2.go): how
// the elements of one type are laid out in a batch. A lane is resolved
// per element type by laneFor — the one place that decides how a type
// is serialised — and serves the key column and the value column alike
// through a strided view of the pair slice, so each lane body exists
// once.

// col is a strided view of one field — every Key or every Value — of a
// pair slice: element i lives at base + i*stride. The lanes run their
// loops directly over it; nothing is gathered into a scratch column and
// no element is boxed.
type col struct {
	base   unsafe.Pointer
	stride uintptr
	n      int
}

func keyCol[K comparable, V any](ps []Pair[K, V]) col {
	if len(ps) == 0 {
		return col{}
	}
	return col{unsafe.Pointer(&ps[0].Key), unsafe.Sizeof(ps[0]), len(ps)}
}

func valCol[K comparable, V any](ps []Pair[K, V]) col {
	if len(ps) == 0 {
		return col{}
	}
	return col{unsafe.Pointer(&ps[0].Value), unsafe.Sizeof(ps[0]), len(ps)}
}

// at returns element i of c as a *T. It is the codec's only typed view
// into a column: T must have the layout of the column's element type,
// which laneFor guarantees by choosing every lane body from the
// element type's kind and size.
func at[T any](c col, i int) *T { return (*T)(unsafe.Add(c.base, uintptr(i)*c.stride)) }

// lane is the resolved column encoding of one element type. enc appends
// the column to buf; dec fills the column from data and returns the
// remaining bytes. d is the column's string dictionary, nil unless dict
// is set. min8 is the type's minimum encoded width (see laneFor).
type lane struct {
	enc  func(buf []byte, c col, d *pairDict) ([]byte, error)
	dec  func(data []byte, c col, d *pairDict) ([]byte, error)
	dict bool
	min8 int
}

var errSpillShort = fmt.Errorf("mapreduce: spill decode: truncated record")

// laneFor resolves the lane of element type T. A shuffled type has one
// of two answers to how it is encoded:
//
//  1. it encodes itself: T implements encoding.BinaryAppender and *T
//     implements encoding.BinaryUnmarshaler. It takes the self-encoding
//     column (see selfLane), ahead of its kind — the algorithm packages
//     implement it on their message types;
//  2. it takes a kind lane: 4- and 8-byte integers, float64, bool,
//     string, [2]int32 and empty structs, named types included.
//
// Anything else has no codec, and asking for one is an error here, at
// resolution, before a record moves.
//
// Each lane states its type's minimum encoded width in eighths of a
// byte, the lower bound its column can reach per element: bit-packed
// bools reach one bit, empty structs zero, and a self-encoding element
// its one-byte length prefix. The decoders bound wire-declared pair
// counts with it before any allocation, so it must never exceed what an
// encoder can write.
func laneFor[T any]() (lane, error) {
	t := reflect.TypeFor[T]()
	if t.Implements(binaryAppender) {
		if !reflect.PointerTo(t).Implements(binaryUnmarshaler) {
			return lane{}, fmt.Errorf("%v implements BinaryAppender but *%v lacks BinaryUnmarshaler", t, t)
		}
		enc, dec := selfLane[T]()
		return lane{enc: enc, dec: dec, min8: 8}, nil
	}
	switch k := t.Kind(); {
	case colIntKind(k) && t.Size() == 4:
		return lane{enc: encDelta[int32], dec: decDelta[int32], min8: 8}, nil
	case colIntKind(k) && t.Size() == 8:
		return lane{enc: encDelta[int64], dec: decDelta[int64], min8: 8}, nil
	case k == reflect.Float64:
		return lane{enc: encF64, dec: decF64, min8: 64}, nil
	case k == reflect.Bool:
		return lane{enc: encBool, dec: decBool, min8: 1}, nil
	case k == reflect.String:
		return lane{enc: encStr, dec: decStr, dict: true, min8: 8}, nil
	case k == reflect.Array && t.Len() == 2 && t.Elem().Kind() == reflect.Int32:
		return lane{enc: encEdge, dec: decEdge, min8: 16}, nil
	case k == reflect.Struct && t.NumField() == 0:
		return lane{
			enc: func(buf []byte, _ col, _ *pairDict) ([]byte, error) { return buf, nil },
			dec: func(data []byte, _ col, _ *pairDict) ([]byte, error) { return data, nil },
		}, nil
	}
	return lane{}, fmt.Errorf("%v has no codec: a shuffled key or value must be a 4- or 8-byte integer, "+
		"a float64, a bool, a string, a [2]int32 or an empty struct, or encode itself: "+
		"implement encoding.BinaryAppender on %v and encoding.BinaryUnmarshaler on *%v", t, t, t)
}

var (
	binaryAppender    = reflect.TypeFor[encoding.BinaryAppender]()
	binaryUnmarshaler = reflect.TypeFor[encoding.BinaryUnmarshaler]()
)

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

// --- kind lanes -------------------------------------------------------

// Integer deltas work in uint64 space with wraparound, so one body
// serves signed and unsigned interpretations of each width exactly.
func encDelta[N int32 | int64](buf []byte, c col, _ *pairDict) ([]byte, error) {
	var prev uint64
	for i := 0; i < c.n; i++ {
		cur := uint64(int64(*at[N](c, i)))
		buf = binary.AppendVarint(buf, int64(cur-prev))
		prev = cur
	}
	return buf, nil
}

func decDelta[N int32 | int64](data []byte, c col, _ *pairDict) ([]byte, error) {
	var prev uint64
	for i := 0; i < c.n; i++ {
		d, n := binary.Varint(data)
		if n <= 0 {
			return nil, errSpillShort
		}
		data = data[n:]
		prev += uint64(d)
		*at[N](c, i) = N(int64(prev))
	}
	return data, nil
}

func encF64(buf []byte, c col, _ *pairDict) ([]byte, error) {
	for i := 0; i < c.n; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(*at[float64](c, i)))
	}
	return buf, nil
}

func decF64(data []byte, c col, _ *pairDict) ([]byte, error) {
	if len(data) < 8*c.n {
		return nil, errSpillShort
	}
	for i := 0; i < c.n; i++ {
		*at[float64](c, i) = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return data[8*c.n:], nil
}

func encBool(buf []byte, c col, _ *pairDict) ([]byte, error) {
	var b byte
	var nb uint
	for i := 0; i < c.n; i++ {
		if *at[bool](c, i) {
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
	return buf, nil
}

func decBool(data []byte, c col, _ *pairDict) ([]byte, error) {
	nbytes := (c.n + 7) / 8
	if len(data) < nbytes {
		return nil, errSpillShort
	}
	for i := 0; i < c.n; i++ {
		*at[bool](c, i) = data[i/8]&(1<<(i%8)) != 0
	}
	return data[nbytes:], nil
}

// Edge endpoints: two delta sub-columns, all first endpoints, then all
// second ones.
func encEdge(buf []byte, c col, _ *pairDict) ([]byte, error) {
	for end := 0; end < 2; end++ {
		var prev int64
		for i := 0; i < c.n; i++ {
			cur := int64(at[[2]int32](c, i)[end])
			buf = binary.AppendVarint(buf, cur-prev)
			prev = cur
		}
	}
	return buf, nil
}

func decEdge(data []byte, c col, _ *pairDict) ([]byte, error) {
	for end := 0; end < 2; end++ {
		var prev int64
		for i := 0; i < c.n; i++ {
			d, n := binary.Varint(data)
			if n <= 0 {
				return nil, errSpillShort
			}
			data = data[n:]
			prev += d
			at[[2]int32](c, i)[end] = int32(prev)
		}
	}
	return data, nil
}

// String columns: uvarint count of dictionary entries new to this
// batch, the new entries (uvarint length + bytes, in first-assigned
// order so the decoder mirror matches), then one token per pair —
// token 0 escapes to an inline string (uvarint length + bytes follow),
// token t>0 references dictionary entry t-1. On decode each distinct
// string is allocated once and shared by every pair referencing it.
func encStr(buf []byte, c col, d *pairDict) ([]byte, error) {
	toks := d.tokens[:0]
	base := d.emitted
	for i := 0; i < c.n; i++ {
		s := *at[string](c, i)
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
			s := *at[string](c, i)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf, nil
}

func decStr(data []byte, c col, d *pairDict) ([]byte, error) {
	data, err := decDictEntries(data, d)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.n; i++ {
		s, rest, err := decStrToken(data, d)
		if err != nil {
			return nil, err
		}
		*at[string](c, i) = s
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

// --- self-encoding column ---------------------------------------------

// selfLane is the column of a type that encodes itself: length-prefixed
// elements, so an element encoding never needs to be self-delimiting.
// Each element appends itself to the column's scratch through
// AppendBinary, called on *T with no reflection in the way: this is the
// lane every message of the matching algorithms takes, once per
// shuffled record on spill and dist.
func selfLane[T any]() (enc, dec func([]byte, col, *pairDict) ([]byte, error)) {
	enc = func(buf []byte, c col, _ *pairDict) ([]byte, error) {
		var scratch []byte
		start := len(buf)
		for i := 0; i < c.n; i++ {
			var err error
			if scratch, err = any(at[T](c, i)).(encoding.BinaryAppender).AppendBinary(scratch[:0]); err != nil {
				return nil, err
			}
			if need := binary.MaxVarintLen32 + len(scratch); cap(buf)-len(buf) < need {
				// Out of room: make it for the rest of the column at the
				// mean element width so far, not for append's next quarter
				// — a multi-megabyte partition encoded into a nil buffer
				// is otherwise copied a dozen times over on its way up.
				rest := need * (c.n - i)
				if i > 0 {
					rest = max(need, ((len(buf)-start)/i+1)*(c.n-i))
				}
				buf = slices.Grow(buf, rest)
			}
			buf = binary.AppendUvarint(buf, uint64(len(scratch)))
			buf = append(buf, scratch...)
		}
		return buf, nil
	}
	dec = func(data []byte, c col, _ *pairDict) ([]byte, error) {
		for i := 0; i < c.n; i++ {
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return nil, errSpillShort
			}
			// Decode into a zero value, not into whatever a recycled pair
			// buffer last held: UnmarshalBinary need not overwrite every
			// field.
			p := at[T](c, i)
			*p = *new(T)
			if err := any(p).(encoding.BinaryUnmarshaler).UnmarshalBinary(data[n : n+int(l)]); err != nil {
				return nil, err
			}
			data = data[n+int(l):]
		}
		return data, nil
	}
	return enc, dec
}
