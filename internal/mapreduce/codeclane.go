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
// is set. min8 is the type's minimum encoded width (see minEnc8).
type lane struct {
	enc  func(buf []byte, c col, d *pairDict) ([]byte, error)
	dec  func(data []byte, c col, d *pairDict) ([]byte, error)
	dict bool
	min8 int
}

var errSpillShort = fmt.Errorf("mapreduce: spill decode: truncated record")

// laneFor resolves the lane of element type T, in this order:
//
//  1. a type with its own encoding.BinaryMarshaler keeps it (through the
//     generic column, see marshalElem) rather than being reinterpreted
//     by kind — the algorithm packages implement it on their message
//     types;
//  2. 4- and 8-byte integers, float64, bool, string, [2]int32 and empty
//     structs — named types included — take the kind lanes below;
//  3. the remaining scalars (narrow integers, float32), fixed arrays of
//     scalars, and slices of scalars or of marshaling elements are
//     encoded reflectively, one length-prefixed element each, in the
//     generic column.
//
// Anything else has no codec, and asking for one is an error here, at
// resolution, before a record moves.
func laneFor[T any]() (lane, error) {
	t := reflect.TypeFor[T]()
	ln := lane{min8: minEnc8(t)}
	marshals, err := hasMarshaling(t)
	if err != nil {
		return lane{}, err
	}
	if marshals {
		ln.enc, ln.dec = genericLane(marshalElem[T](t))
		return ln, nil
	}
	switch k := t.Kind(); {
	case colIntKind(k) && t.Size() == 4:
		ln.enc, ln.dec = encDelta[int32], decDelta[int32]
	case colIntKind(k) && t.Size() == 8:
		ln.enc, ln.dec = encDelta[int64], decDelta[int64]
	case k == reflect.Float64:
		ln.enc, ln.dec = encF64, decF64
	case k == reflect.Bool:
		ln.enc, ln.dec = encBool, decBool
	case k == reflect.String:
		ln.enc, ln.dec, ln.dict = encStr, decStr, true
	case k == reflect.Array && t.Len() == 2 && t.Elem().Kind() == reflect.Int32:
		ln.enc, ln.dec = encEdge, decEdge
	case k == reflect.Struct && t.NumField() == 0:
		ln.enc = func(buf []byte, _ col, _ *pairDict) ([]byte, error) { return buf, nil }
		ln.dec = func(data []byte, _ col, _ *pairDict) ([]byte, error) { return data, nil }
	default:
		encE, decE, ok := elemCodecFor(t, true)
		if !ok {
			return lane{}, fmt.Errorf("%v has no codec: a shuffled key or value must be a scalar, a string, "+
				"an array or slice of those, or implement encoding.BinaryMarshaler (with BinaryUnmarshaler on its pointer)", t)
		}
		ln.enc, ln.dec = genericLane(
			func(buf []byte, p *T) ([]byte, error) { return encE(buf, reflect.ValueOf(p).Elem()) },
			func(data []byte, p *T) error { return decE(data, reflect.ValueOf(p).Elem()) })
	}
	return ln, nil
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
// lower bound a column can reach per element (bit-packed bools reach
// one bit; empty structs reach zero). Used to bound wire-declared pair
// counts before any allocation. It is only a lower bound: float32 has
// no lane of its own and costs 9 bytes in the generic column, well
// above the 32 stated here.
func minEnc8(t reflect.Type) int {
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

// --- generic column ---------------------------------------------------

// genericLane is the column of every type without a kind lane:
// length-prefixed elements, so an element encoding never needs to be
// self-delimiting. encE appends the encoding of *p to buf (the column's
// scratch, reused across the elements); decE decodes exactly data into
// *p.
func genericLane[T any](
	encE func(buf []byte, p *T) ([]byte, error),
	decE func(data []byte, p *T) error,
) (enc, dec func([]byte, col, *pairDict) ([]byte, error)) {
	enc = func(buf []byte, c col, _ *pairDict) ([]byte, error) {
		var scratch []byte
		start := len(buf)
		for i := 0; i < c.n; i++ {
			var err error
			if scratch, err = encE(scratch[:0], at[T](c, i)); err != nil {
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
			if err := decE(data[n:n+int(l)], at[T](c, i)); err != nil {
				return nil, err
			}
			data = data[n+int(l):]
		}
		return data, nil
	}
	return enc, dec
}

// marshalElem is the element codec of a type t = T that encodes itself,
// called on *T with no reflect.Value in the way: this is the lane every
// message of the matching algorithms takes, once per shuffled record on
// spill and dist.
func marshalElem[T any](t reflect.Type) (func([]byte, *T) ([]byte, error), func([]byte, *T) error) {
	enc := selfEnc(t)
	return func(buf []byte, p *T) ([]byte, error) { return enc(buf, p) },
		func(data []byte, p *T) error {
			// Decode into a zero value, not into whatever a recycled pair
			// buffer last held: UnmarshalBinary need not overwrite every
			// field.
			*p = *new(T)
			return any(p).(encoding.BinaryUnmarshaler).UnmarshalBinary(data)
		}
}

// selfEnc is how an element of marshaling type t, handed over as a
// pointer, appends itself to buf. Whether *t also implements
// encoding.BinaryAppender — which appends in place, where MarshalBinary
// returns a fresh slice per element — is settled here, once per lane.
func selfEnc(t reflect.Type) func(buf []byte, p any) ([]byte, error) {
	if reflect.PointerTo(t).Implements(binaryAppender) {
		return func(buf []byte, p any) ([]byte, error) {
			return p.(encoding.BinaryAppender).AppendBinary(buf)
		}
	}
	return func(buf []byte, p any) ([]byte, error) {
		b, err := p.(encoding.BinaryMarshaler).MarshalBinary()
		return append(buf, b...), err
	}
}

// elemEnc and elemDec are the reflective element codecs: what a type
// resolved from a reflect.Type — a narrow scalar, an array, a slice and
// its elements — is encoded through.
type elemEnc func(buf []byte, v reflect.Value) ([]byte, error)
type elemDec func(data []byte, into reflect.Value) error

var (
	binaryMarshaler   = reflect.TypeFor[encoding.BinaryMarshaler]()
	binaryAppender    = reflect.TypeFor[encoding.BinaryAppender]()
	binaryUnmarshaler = reflect.TypeFor[encoding.BinaryUnmarshaler]()
)

// hasMarshaling reports whether t encodes itself. A type that can
// marshal but not unmarshal is an error, not a fall-through to its kind.
func hasMarshaling(t reflect.Type) (bool, error) {
	if !t.Implements(binaryMarshaler) {
		return false, nil
	}
	if !reflect.PointerTo(t).Implements(binaryUnmarshaler) {
		return false, fmt.Errorf("%v implements BinaryMarshaler but *%v lacks BinaryUnmarshaler", t, t)
	}
	return true, nil
}

// elemCodecFor resolves the element codec of t: its own marshaling
// methods when it has them (this is what makes values like the
// []posting groups of the similarity join wire-able — the element type
// carries the codec, the unnamed slice type cannot), then the
// reflective scalar codec, then — at the top level only — a slice of
// either.
func elemCodecFor(t reflect.Type, top bool) (elemEnc, elemDec, bool) {
	if ok, _ := hasMarshaling(t); ok {
		enc := selfEnc(t)
		return func(buf []byte, v reflect.Value) ([]byte, error) {
				return enc(buf, v.Addr().Interface())
			}, func(data []byte, into reflect.Value) error {
				// Decode into a zero value, not into whatever a recycled
				// pair buffer last held: UnmarshalBinary need not
				// overwrite every field.
				into.SetZero()
				return into.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(data)
			}, true
	}
	if encS, decS, ok := scalarCodec(t); ok {
		return func(buf []byte, v reflect.Value) ([]byte, error) {
				return encS(buf, v), nil
			}, func(data []byte, into reflect.Value) error {
				rest, err := decS(data, into)
				if err == nil && len(rest) != 0 {
					err = fmt.Errorf("mapreduce: spill decode: %d trailing bytes", len(rest))
				}
				return err
			}, true
	}
	if top && t.Kind() == reflect.Slice {
		if encE, decE, ok := elemCodecFor(t.Elem(), false); ok {
			enc, dec := sliceCodec(t, encE, decE)
			return enc, dec, true
		}
	}
	return nil, nil, false
}

// scalarCodec covers scalar kinds, empty structs, and fixed arrays of
// scalars, including named types such as graph.NodeID or vector.TermID.
// These encodings are self-delimiting: dec returns the bytes it did not
// consume, which is what lets an array concatenate its elements.
func scalarCodec(t reflect.Type) (func(buf []byte, v reflect.Value) []byte, func(data []byte, into reflect.Value) ([]byte, error), bool) {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(buf []byte, v reflect.Value) []byte {
				return binary.AppendVarint(buf, v.Int())
			}, func(data []byte, into reflect.Value) ([]byte, error) {
				x, n := binary.Varint(data)
				if n <= 0 {
					return nil, errSpillShort
				}
				into.SetInt(x)
				return data[n:], nil
			}, true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(buf []byte, v reflect.Value) []byte {
				return binary.AppendUvarint(buf, v.Uint())
			}, func(data []byte, into reflect.Value) ([]byte, error) {
				x, n := binary.Uvarint(data)
				if n <= 0 {
					return nil, errSpillShort
				}
				into.SetUint(x)
				return data[n:], nil
			}, true
	case reflect.Float32, reflect.Float64:
		return func(buf []byte, v reflect.Value) []byte {
				return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
			}, func(data []byte, into reflect.Value) ([]byte, error) {
				if len(data) < 8 {
					return nil, errSpillShort
				}
				into.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
				return data[8:], nil
			}, true
	case reflect.Bool:
		return func(buf []byte, v reflect.Value) []byte {
				if v.Bool() {
					return append(buf, 1)
				}
				return append(buf, 0)
			}, func(data []byte, into reflect.Value) ([]byte, error) {
				if len(data) < 1 {
					return nil, errSpillShort
				}
				into.SetBool(data[0] != 0)
				return data[1:], nil
			}, true
	case reflect.String:
		return func(buf []byte, v reflect.Value) []byte {
				s := v.String()
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				return append(buf, s...)
			}, func(data []byte, into reflect.Value) ([]byte, error) {
				l, n := binary.Uvarint(data)
				if n <= 0 || uint64(len(data)-n) < l {
					return nil, errSpillShort
				}
				into.SetString(string(data[n : n+int(l)]))
				return data[n+int(l):], nil
			}, true
	case reflect.Struct:
		if t.NumField() == 0 {
			return func(buf []byte, v reflect.Value) []byte { return buf },
				func(data []byte, into reflect.Value) ([]byte, error) { return data, nil },
				true
		}
		return nil, nil, false
	case reflect.Array:
		encE, decE, ok := scalarCodec(t.Elem())
		if !ok {
			return nil, nil, false
		}
		n := t.Len()
		return func(buf []byte, v reflect.Value) []byte {
				for i := 0; i < n; i++ {
					buf = encE(buf, v.Index(i))
				}
				return buf
			}, func(data []byte, into reflect.Value) ([]byte, error) {
				var err error
				for i := 0; i < n; i++ {
					if data, err = decE(data, into.Index(i)); err != nil {
						return nil, err
					}
				}
				return data, nil
			}, true
	default:
		return nil, nil, false
	}
}

// sliceCodec serializes slice type t as a uvarint element count followed
// by length-prefixed elements.
func sliceCodec(t reflect.Type, encE elemEnc, decE elemDec) (elemEnc, elemDec) {
	return func(buf []byte, v reflect.Value) ([]byte, error) {
			n := v.Len()
			buf = binary.AppendUvarint(buf, uint64(n))
			var scratch []byte
			for i := 0; i < n; i++ {
				eb, err := encE(scratch[:0], v.Index(i))
				if err != nil {
					return nil, err
				}
				scratch = eb
				buf = binary.AppendUvarint(buf, uint64(len(eb)))
				buf = append(buf, eb...)
			}
			return buf, nil
		}, func(data []byte, into reflect.Value) error {
			n, m := binary.Uvarint(data)
			if m <= 0 {
				return errSpillShort
			}
			data = data[m:]
			// Every element carries at least a 1-byte length prefix, so
			// the count is bounded by the remaining payload — a
			// corrupted count fails here instead of sizing an
			// arbitrarily large allocation (or overflowing int).
			if n > uint64(len(data)) {
				return errSpillShort
			}
			rv := reflect.MakeSlice(t, int(n), int(n))
			for i := 0; i < int(n); i++ {
				l, m := binary.Uvarint(data)
				if m <= 0 || uint64(len(data)-m) < l {
					return errSpillShort
				}
				if err := decE(data[m:m+int(l)], rv.Index(i)); err != nil {
					return err
				}
				data = data[m+int(l):]
			}
			if len(data) != 0 {
				return fmt.Errorf("mapreduce: slice decode: %d trailing bytes", len(data))
			}
			into.Set(rv)
			return nil
		}
}
