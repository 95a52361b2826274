package mapreduce

import (
	"bufio"
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync/atomic"

	"repro/internal/extsort"
)

// The spilling shuffle must serialize intermediate keys and values to
// run files. Serialization is resolved once per job from the concrete
// key and value types, in order of preference:
//
//  1. the exact builtin types the repository's jobs use most get
//     reflection-free fast paths (fastCodec) — these are unnamed
//     types, so they can never carry marshaling methods;
//  2. types implementing encoding.BinaryMarshaler (values) and
//     encoding.BinaryUnmarshaler (pointers) use their own methods — the
//     algorithm packages implement these on their message types;
//  3. remaining scalar kinds (all integer widths, floats, bools,
//     strings — named types included), empty structs, and fixed arrays
//     of scalars are encoded reflectively in a compact binary form;
//  4. anything else falls back to encoding/gob, which requires exported
//     fields but handles arbitrary composite types.
//
// The batch codecs (codecv2.go's columns, spillBlockCodec below) frame
// the resolved element encodings; an element codec never needs to be
// self-delimiting.

// spillCodec encodes one type for the spill files: enc appends the
// encoding of v to buf, dec decodes exactly data. Callers reach both
// through forStream.
//
// min8 is the type's minimum encoded width in eighths of a byte (see
// minEnc8 in codecv2.go); the batch decoders use it to bound
// wire-declared counts. stream, when set, returns a fresh paired
// en/decoder holding per-stream state — the gob fallback uses it so a
// column encodes through one persistent gob stream instead of one
// en/decoder (and one type descriptor) per record. A stream codec's
// enc and dec must be paired over one self-contained byte sequence and
// used single-threaded; stateless codecs return themselves.
type spillCodec[T any] struct {
	enc    func(buf []byte, v T) ([]byte, error)
	dec    func(data []byte) (T, error)
	stream func() spillCodec[T]
	min8   int
}

// forStream returns the codec instance to use for one encode or decode
// stream (a v2 column, a spill block).
func (c spillCodec[T]) forStream() spillCodec[T] {
	if c.stream != nil {
		return c.stream()
	}
	return c
}

// resolveSpillCodec builds the codec for type T following the
// resolution order above, and stamps the type's minimum encoded width.
func resolveSpillCodec[T any]() (spillCodec[T], error) {
	c, err := resolveSpillCodecFor[T]()
	if err == nil {
		var zero T
		c.min8 = minEnc8(reflect.TypeOf(zero))
	}
	return c, err
}

func resolveSpillCodecFor[T any]() (spillCodec[T], error) {
	var zero T
	if c, ok := fastCodec[T](); ok {
		return c, nil
	}
	if _, ok := any(zero).(encoding.BinaryMarshaler); ok {
		if _, ok := any(&zero).(encoding.BinaryUnmarshaler); !ok {
			return spillCodec[T]{}, fmt.Errorf("%T implements BinaryMarshaler but *%T lacks BinaryUnmarshaler", zero, zero)
		}
		return spillCodec[T]{
			enc: func(buf []byte, v T) ([]byte, error) {
				b, err := any(v).(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil {
					return nil, err
				}
				return append(buf, b...), nil
			},
			dec: func(data []byte) (T, error) {
				var v T
				err := any(&v).(encoding.BinaryUnmarshaler).UnmarshalBinary(data)
				return v, err
			},
		}, nil
	}
	t := reflect.TypeOf(zero)
	if t != nil {
		if c, ok := reflectCodec[T](t); ok {
			return c, nil
		}
		if t.Kind() == reflect.Slice {
			if c, ok := sliceCodec[T](t); ok {
				return c, nil
			}
		}
	}
	return gobCodec[T](), nil
}

// fastCodec returns a reflection-free codec for the exact intermediate
// types the repository's jobs use most. The typed-closure assertion
// costs nothing per record: when T is the asserted type the closures
// are used directly, with no boxing of keys or values.
func fastCodec[T any]() (spillCodec[T], bool) {
	c := spillCodec[T]{}
	switch any(c.enc).(type) {
	case func([]byte, int32) ([]byte, error):
		c.enc = any(func(buf []byte, v int32) ([]byte, error) {
			return binary.AppendVarint(buf, int64(v)), nil
		}).(func([]byte, T) ([]byte, error))
		c.dec = any(func(data []byte) (int32, error) {
			x, n := binary.Varint(data)
			if n <= 0 || n != len(data) {
				return 0, errSpillShort
			}
			return int32(x), nil
		}).(func([]byte) (T, error))
	case func([]byte, int) ([]byte, error):
		c.enc = any(func(buf []byte, v int) ([]byte, error) {
			return binary.AppendVarint(buf, int64(v)), nil
		}).(func([]byte, T) ([]byte, error))
		c.dec = any(func(data []byte) (int, error) {
			x, n := binary.Varint(data)
			if n <= 0 || n != len(data) {
				return 0, errSpillShort
			}
			return int(x), nil
		}).(func([]byte) (T, error))
	case func([]byte, int64) ([]byte, error):
		c.enc = any(func(buf []byte, v int64) ([]byte, error) {
			return binary.AppendVarint(buf, v), nil
		}).(func([]byte, T) ([]byte, error))
		c.dec = any(func(data []byte) (int64, error) {
			x, n := binary.Varint(data)
			if n <= 0 || n != len(data) {
				return 0, errSpillShort
			}
			return x, nil
		}).(func([]byte) (T, error))
	case func([]byte, float64) ([]byte, error):
		c.enc = any(func(buf []byte, v float64) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)), nil
		}).(func([]byte, T) ([]byte, error))
		c.dec = any(func(data []byte) (float64, error) {
			if len(data) != 8 {
				return 0, errSpillShort
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(data)), nil
		}).(func([]byte) (T, error))
	case func([]byte, bool) ([]byte, error):
		c.enc = any(func(buf []byte, v bool) ([]byte, error) {
			if v {
				return append(buf, 1), nil
			}
			return append(buf, 0), nil
		}).(func([]byte, T) ([]byte, error))
		c.dec = any(func(data []byte) (bool, error) {
			if len(data) != 1 {
				return false, errSpillShort
			}
			return data[0] != 0, nil
		}).(func([]byte) (T, error))
	case func([]byte, string) ([]byte, error):
		c.enc = any(func(buf []byte, v string) ([]byte, error) {
			return append(buf, v...), nil
		}).(func([]byte, T) ([]byte, error))
		c.dec = any(func(data []byte) (string, error) {
			return string(data), nil
		}).(func([]byte) (T, error))
	case func([]byte, [2]int32) ([]byte, error):
		c.enc = any(func(buf []byte, v [2]int32) ([]byte, error) {
			buf = binary.AppendVarint(buf, int64(v[0]))
			return binary.AppendVarint(buf, int64(v[1])), nil
		}).(func([]byte, T) ([]byte, error))
		c.dec = any(func(data []byte) ([2]int32, error) {
			a, n := binary.Varint(data)
			if n <= 0 {
				return [2]int32{}, errSpillShort
			}
			b, m := binary.Varint(data[n:])
			if m <= 0 || n+m != len(data) {
				return [2]int32{}, errSpillShort
			}
			return [2]int32{int32(a), int32(b)}, nil
		}).(func([]byte) (T, error))
	case func([]byte, struct{}) ([]byte, error):
		c.enc = any(func(buf []byte, v struct{}) ([]byte, error) {
			return buf, nil
		}).(func([]byte, T) ([]byte, error))
		c.dec = any(func(data []byte) (struct{}, error) {
			return struct{}{}, nil
		}).(func([]byte) (T, error))
	default:
		return c, false
	}
	return c, true
}

// reflectCodec covers scalar kinds, empty structs, and fixed arrays of
// scalars, including named types such as graph.NodeID or vector.TermID.
func reflectCodec[T any](t reflect.Type) (spillCodec[T], bool) {
	encElem, decElem, ok := reflectElemCodec(t)
	if !ok {
		return spillCodec[T]{}, false
	}
	return spillCodec[T]{
		enc: func(buf []byte, v T) ([]byte, error) {
			return encElem(buf, reflect.ValueOf(v)), nil
		},
		dec: func(data []byte) (T, error) {
			var v T
			rv := reflect.ValueOf(&v).Elem()
			rest, err := decElem(data, rv)
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("mapreduce: spill decode: %d trailing bytes", len(rest))
			}
			return v, err
		},
	}, true
}

type elemEnc func(buf []byte, v reflect.Value) []byte
type elemDec func(data []byte, into reflect.Value) (rest []byte, err error)

var errSpillShort = fmt.Errorf("mapreduce: spill decode: truncated record")

// reflectElemCodec returns append/decode functions for one supported
// reflect kind, or ok=false for unsupported kinds.
func reflectElemCodec(t reflect.Type) (elemEnc, elemDec, bool) {
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
		encE, decE, ok := reflectElemCodec(t.Elem())
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

// sliceCodec serializes a slice type as a uvarint element count followed
// by length-prefixed elements. Element encoding is resolved reflectively
// in the same preference order as the top level: the element's own
// BinaryMarshaler/BinaryUnmarshaler methods when it has them (this is
// what makes values like the []posting groups of the similarity join
// wire-able — the element type carries the codec, the unnamed slice
// type cannot), then the reflective scalar codec. The per-element length
// prefix makes decode independent of whether the element encoding is
// self-delimiting.
func sliceCodec[T any](t reflect.Type) (spillCodec[T], bool) {
	elem := t.Elem()
	encE, decE, ok := sliceElemCodec(elem)
	if !ok {
		return spillCodec[T]{}, false
	}
	return spillCodec[T]{
		enc: func(buf []byte, v T) ([]byte, error) {
			rv := reflect.ValueOf(v)
			n := rv.Len()
			buf = binary.AppendUvarint(buf, uint64(n))
			var scratch []byte
			for i := 0; i < n; i++ {
				eb, err := encE(scratch[:0], rv.Index(i))
				if err != nil {
					return nil, err
				}
				scratch = eb
				buf = binary.AppendUvarint(buf, uint64(len(eb)))
				buf = append(buf, eb...)
			}
			return buf, nil
		},
		dec: func(data []byte) (T, error) {
			var v T
			n, m := binary.Uvarint(data)
			if m <= 0 {
				return v, errSpillShort
			}
			data = data[m:]
			// Every element carries at least a 1-byte length prefix, so
			// the count is bounded by the remaining payload — a
			// corrupted count fails here instead of sizing an
			// arbitrarily large allocation (or overflowing int).
			if n > uint64(len(data)) {
				return v, errSpillShort
			}
			rv := reflect.MakeSlice(t, int(n), int(n))
			for i := 0; i < int(n); i++ {
				l, m := binary.Uvarint(data)
				if m <= 0 || uint64(len(data)-m) < l {
					return v, errSpillShort
				}
				if err := decE(data[m:m+int(l)], rv.Index(i)); err != nil {
					return v, err
				}
				data = data[m+int(l):]
			}
			if len(data) != 0 {
				return v, fmt.Errorf("mapreduce: slice decode: %d trailing bytes", len(data))
			}
			reflect.ValueOf(&v).Elem().Set(rv)
			return v, nil
		},
	}, true
}

// sliceElemCodec resolves one slice element's encode/decode, preferring
// the element's marshaling methods over the reflective scalar codec.
func sliceElemCodec(elem reflect.Type) (func([]byte, reflect.Value) ([]byte, error), func([]byte, reflect.Value) error, bool) {
	marshaler := reflect.TypeFor[encoding.BinaryMarshaler]()
	unmarshaler := reflect.TypeFor[encoding.BinaryUnmarshaler]()
	if elem.Implements(marshaler) && reflect.PointerTo(elem).Implements(unmarshaler) {
		return func(buf []byte, v reflect.Value) ([]byte, error) {
				b, err := v.Interface().(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil {
					return nil, err
				}
				return append(buf, b...), nil
			}, func(data []byte, into reflect.Value) error {
				return into.Addr().Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(data)
			}, true
	}
	encE, decE, ok := reflectElemCodec(elem)
	if !ok {
		return nil, nil, false
	}
	return func(buf []byte, v reflect.Value) ([]byte, error) {
			return encE(buf, v), nil
		}, func(data []byte, into reflect.Value) error {
			rest, err := decE(data, into)
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("mapreduce: slice element decode: %d trailing bytes", len(rest))
			}
			return err
		}, true
}

// gobCodec is the slow-path fallback for types no other codec covers:
// correct for any gob-encodable type. It exists only as a stream codec —
// every batch path encodes a column through forStream, so one
// persistent gob en/decoder pair serves the column and the type
// descriptor is sent once instead of per record.
func gobCodec[T any]() spillCodec[T] {
	return spillCodec[T]{stream: func() spillCodec[T] {
		var b bytes.Buffer
		genc := gob.NewEncoder(&b)
		feed := &gobFeed{}
		gdec := gob.NewDecoder(feed)
		return spillCodec[T]{
			enc: func(buf []byte, v T) ([]byte, error) {
				b.Reset()
				if err := genc.Encode(&v); err != nil {
					return nil, fmt.Errorf("mapreduce: spill gob encode %T: %w", v, err)
				}
				return append(buf, b.Bytes()...), nil
			},
			dec: func(data []byte) (T, error) {
				var v T
				feed.data = data
				err := gdec.Decode(&v)
				return v, err
			},
		}
	}}
}

// gobFeed lets one persistent gob.Decoder consume a sequence of
// length-delimited chunks: each dec call points data at the next
// chunk. It implements io.ByteReader so gob does not wrap it in bufio
// (which would read ahead past the chunk).
type gobFeed struct{ data []byte }

func (g *gobFeed) Read(p []byte) (int, error) {
	if len(g.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, g.data)
	g.data = g.data[n:]
	return n, nil
}

func (g *gobFeed) ReadByte() (byte, error) {
	if len(g.data) == 0 {
		return 0, io.EOF
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b, nil
}

// readUvarint reads one unsigned varint. When the reader is a
// *bufio.Reader (the merge's run readers always are) the varint is
// parsed from the reader's peeked window in one shot instead of through
// per-byte ReadByte calls — the per-record decode overhead of the merge
// is mostly varint parsing, so this is worth the type test.
func readUvarint(r io.Reader, br io.ByteReader) (uint64, error) {
	bufr, ok := r.(*bufio.Reader)
	if !ok {
		return binary.ReadUvarint(br)
	}
	window, _ := bufr.Peek(binary.MaxVarintLen64)
	if len(window) == 0 {
		// Distinguish a clean EOF from a read error.
		if _, err := bufr.Peek(1); err != nil {
			return 0, err
		}
		return binary.ReadUvarint(br)
	}
	x, n := binary.Uvarint(window)
	if n <= 0 {
		if len(window) < binary.MaxVarintLen64 {
			// The varint may straddle the window end near EOF; fall
			// back to the byte-wise reader, which reports truncation.
			return binary.ReadUvarint(br)
		}
		return 0, fmt.Errorf("mapreduce: spill decode: varint overflow")
	}
	bufr.Discard(n)
	return x, nil
}

// frameErr normalizes a mid-record EOF to a real error: only a clean
// boundary before a record may report io.EOF upward.
func frameErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("mapreduce: spill decode: truncated run file")
	}
	return err
}

// spillBlockRecs is the records-per-block granularity of the v2 spill
// run format: large enough that column and compression overheads
// amortize, small enough that a block stays well inside the run
// readers' 64 KiB buffers for typical records.
const spillBlockRecs = 512

// spillBlockCodec is the codec-v2 run format for extsort: records are
// gathered into blocks of up to spillBlockRecs and written as
//
//	frame   := uvarint payloadLen, payload
//	payload := marker byte, uvarint n, body
//	body    := seq column, key column, value column     (marker 0x02)
//	        |  uvarint rawLen, flate(columns)           (marker 0x03)
//
// The seq column delta-encodes the (split<<40 | arrival) sequence
// numbers — records reach a run sorted by key, so within a key group
// the seqs ascend and the deltas collapse. Key and value columns use
// the same pairColCodec lanes as the wire blobs, but with per-run
// dictionaries: one process writes and reads a run strictly in order,
// so unlike wire frames the dictionary may span blocks, interning each
// distinct string once per run. The cached key image is never
// serialized; decode recomputes it through img.
//
// One codec instance serves a whole job (all sorters share it): the
// instance itself is stateless, per-run state lives in the run
// en/decoders, and saved accrues the bytes block compression avoided
// across every run.
type spillBlockCodec[K comparable, V any] struct {
	key      spillCodec[K]
	val      spillCodec[V]
	img      func(K) uint64
	compress bool
	saved    *atomic.Int64
}

// Encode and Decode satisfy extsort.Codec, but the sorter always takes
// the StreamCodec path for this type; the record-at-a-time interface
// cannot express block framing.
func (c *spillBlockCodec[K, V]) Encode(io.Writer, spillRec[K, V]) error {
	return fmt.Errorf("mapreduce: spillBlockCodec requires the stream run interface")
}

func (c *spillBlockCodec[K, V]) Decode(io.Reader) (spillRec[K, V], error) {
	var rec spillRec[K, V]
	return rec, fmt.Errorf("mapreduce: spillBlockCodec requires the stream run interface")
}

// NewRunEncoder and NewRunDecoder recycle en/decoders through pools on
// the process-cached column codec. Their byte buffers and pair/seq
// staging grow to steady-state during the first runs; without
// recycling every spill re-pays that growth (a sorter under a 10x
// memory deficit writes dozens of runs per job). Encoders re-enter the
// pool at Flush, decoders at the io.EOF that ends their run — the
// points where extsort provably drops its reference (a merge source is
// marked done at EOF and never decoded again). The per-job codec
// handle c is re-stamped on every Get and cleared on release, so a
// pooled en/decoder never pins a finished job's state.
func (c *spillBlockCodec[K, V]) NewRunEncoder() extsort.RunEncoder[spillRec[K, V]] {
	pc := pairColsFor[K, V](c.key, c.val)
	if e := pc.getEnc(); e != nil {
		e.c = c
		return e
	}
	e := &spillRunEnc[K, V]{
		c:     c,
		pc:    pc,
		pairs: make([]Pair[K, V], 0, spillBlockRecs),
		seqs:  make([]uint64, 0, spillBlockRecs),
	}
	if pc.kDict {
		e.kd = newPairDict()
	}
	if pc.vDict {
		e.vd = newPairDict()
	}
	return e
}

func (c *spillBlockCodec[K, V]) NewRunDecoder() extsort.RunDecoder[spillRec[K, V]] {
	pc := pairColsFor[K, V](c.key, c.val)
	if d := pc.getDec(); d != nil {
		d.c = c
		return d
	}
	d := &spillRunDec[K, V]{
		c:     c,
		pc:    pc,
		pairs: make([]Pair[K, V], spillBlockRecs),
		seqs:  make([]uint64, spillBlockRecs),
	}
	if pc.kDict {
		d.kd = newPairDict()
	}
	if pc.vDict {
		d.vd = newPairDict()
	}
	return d
}

// spillRunEnc buffers one run's records into blocks. It runs only on
// the sorter's writer goroutine.
type spillRunEnc[K comparable, V any] struct {
	c      *spillBlockCodec[K, V]
	pc     *pairColCodec[K, V]
	kd, vd *pairDict
	pairs  []Pair[K, V]
	seqs   []uint64
	raw    []byte // uncompressed block image
	cbuf   []byte // flate image scratch
	frame  []byte // length-prefixed frame under construction
}

func (e *spillRunEnc[K, V]) Encode(w io.Writer, rec spillRec[K, V]) error {
	e.pairs = append(e.pairs, Pair[K, V]{Key: rec.key, Value: rec.val})
	e.seqs = append(e.seqs, rec.seq)
	if len(e.pairs) < spillBlockRecs {
		return nil
	}
	return e.flushBlock(w)
}

func (e *spillRunEnc[K, V]) Flush(w io.Writer) error {
	if len(e.pairs) > 0 {
		if err := e.flushBlock(w); err != nil {
			return err
		}
	}
	// The run is sealed and the sorter drops its reference after Flush:
	// recycle the encoder. Dictionaries are per-run state and must
	// forget their entries; the staging slices are cleared so a pooled
	// encoder cannot pin the previous run's keys and values; the byte
	// buffers keep their grown capacity — that is the point.
	if e.kd != nil {
		e.kd.reset()
	}
	if e.vd != nil {
		e.vd.reset()
	}
	clear(e.pairs[:cap(e.pairs)])
	e.pairs = e.pairs[:0]
	e.seqs = e.seqs[:0]
	e.c = nil
	e.pc.putEnc(e)
	return nil
}

func (e *spillRunEnc[K, V]) flushBlock(w io.Writer) error {
	raw := e.raw[:0]
	var prev uint64
	for _, s := range e.seqs {
		raw = binary.AppendVarint(raw, int64(s-prev))
		prev = s
	}
	raw, err := e.pc.encK(raw, e.pairs, e.kd)
	if err != nil {
		return err
	}
	raw, err = e.pc.encV(raw, e.pairs, e.vd)
	if err != nil {
		return err
	}
	e.raw = raw

	marker := pairBlobV2
	body := raw
	if e.c.compress && len(raw) >= compressMinLen {
		cbuf := binary.AppendUvarint(e.cbuf[:0], uint64(len(raw)))
		if cbuf, err = deflateBlock(cbuf, raw); err != nil {
			return err
		}
		e.cbuf = cbuf
		if len(cbuf) < len(raw) {
			marker = pairBlobV2Flate
			body = cbuf
			if e.c.saved != nil {
				e.c.saved.Add(int64(len(raw) - len(cbuf)))
			}
		}
	}

	var hdr [2 + binary.MaxVarintLen64]byte
	hdr[0] = marker
	hn := 1 + binary.PutUvarint(hdr[1:], uint64(len(e.pairs)))
	frame := binary.AppendUvarint(e.frame[:0], uint64(hn+len(body)))
	frame = append(frame, hdr[:hn]...)
	frame = append(frame, body...)
	e.frame = frame
	e.pairs = e.pairs[:0]
	e.seqs = e.seqs[:0]
	_, err = w.Write(frame)
	return err
}

// spillRunDec decodes one run's blocks, serving records by index. It
// runs only on the goroutine merging that run.
type spillRunDec[K comparable, V any] struct {
	c       *spillBlockCodec[K, V]
	pc      *pairColCodec[K, V]
	kd, vd  *pairDict
	pairs   []Pair[K, V]
	seqs    []uint64
	rbuf    []byte // frame readback
	scratch []byte // inflated block image
	pos, n  int
}

func (d *spillRunDec[K, V]) Decode(r io.Reader) (spillRec[K, V], error) {
	var rec spillRec[K, V]
	if d.pos >= d.n {
		if err := d.readBlock(r); err != nil {
			if err == io.EOF {
				// Clean end of the run: the merge marks this source
				// done and never decodes it again, so the decoder can
				// be recycled for the next run.
				d.release()
			}
			return rec, err
		}
	}
	p := d.pairs[d.pos]
	rec.seq = d.seqs[d.pos]
	rec.key = p.Key
	rec.val = p.Value
	if d.c.img != nil {
		rec.img = d.c.img(rec.key)
	}
	d.pos++
	return rec, nil
}

// release resets the per-run state and returns the decoder to its
// codec's pool; the block slices are cleared so a pooled decoder cannot
// pin the previous run's keys and values, while rbuf and scratch keep
// their grown capacity.
func (d *spillRunDec[K, V]) release() {
	if d.kd != nil {
		d.kd.reset()
	}
	if d.vd != nil {
		d.vd.reset()
	}
	clear(d.pairs[:cap(d.pairs)])
	d.pos, d.n = 0, 0
	d.c = nil
	d.pc.putDec(d)
}

func (d *spillRunDec[K, V]) readBlock(r io.Reader) error {
	br, ok := r.(io.ByteReader)
	if !ok {
		return fmt.Errorf("mapreduce: spill decode: reader lacks io.ByteReader")
	}
	frameLen, err := readUvarint(r, br)
	if err != nil {
		// io.EOF at a block boundary is the clean end of the run.
		return err
	}
	if frameLen < 2 || frameLen > maxPairCount {
		return fmt.Errorf("mapreduce: spill decode: %d-byte block frame", frameLen)
	}
	if uint64(cap(d.rbuf)) < frameLen {
		// Headroom: block frames drift a few bytes in size, and an
		// exact-fit buffer would realloc on every slightly-larger one.
		d.rbuf = make([]byte, frameLen+frameLen/4)
	}
	d.rbuf = d.rbuf[:frameLen]
	if _, err = io.ReadFull(r, d.rbuf); err != nil {
		return frameErr(err)
	}
	data := d.rbuf
	marker := data[0]
	n, m := binary.Uvarint(data[1:])
	if m <= 0 || n == 0 || n > spillBlockRecs {
		return fmt.Errorf("mapreduce: spill decode: block of %d records", n)
	}
	data = data[1+m:]
	if marker == pairBlobV2Flate {
		rawLen, m := binary.Uvarint(data)
		if m <= 0 || rawLen > maxPairCount || rawLen > uint64(len(data)-m)*maxInflateRatio {
			return errSpillShort
		}
		if uint64(cap(d.scratch)) < rawLen {
			d.scratch = make([]byte, rawLen+rawLen/4)
		}
		d.scratch = d.scratch[:rawLen]
		if err := inflateBlock(d.scratch, data[m:]); err != nil {
			return err
		}
		data = d.scratch
	} else if marker != pairBlobV2 {
		return fmt.Errorf("mapreduce: spill decode: unknown block marker 0x%02x", marker)
	}

	if cap(d.pairs) < int(n) {
		d.pairs = make([]Pair[K, V], spillBlockRecs)
		d.seqs = make([]uint64, spillBlockRecs)
	}
	d.pairs = d.pairs[:n]
	d.seqs = d.seqs[:n]
	var prev uint64
	for i := range d.seqs {
		delta, m := binary.Varint(data)
		if m <= 0 {
			return errSpillShort
		}
		data = data[m:]
		prev += uint64(delta)
		d.seqs[i] = prev
	}
	if data, err = d.pc.decK(data, d.pairs, d.kd); err != nil {
		return err
	}
	if _, err = d.pc.decV(data, d.pairs, d.vd); err != nil {
		return err
	}
	d.pos, d.n = 0, int(n)
	return nil
}
