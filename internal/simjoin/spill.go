package simjoin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This compact binary form lets the join run on the spilling and dist
// shuffle backends of internal/mapreduce, where a shuffled key or value
// either takes one of the engine codec's kind lanes or encodes itself.
// The index job shuffles posting values and its reduce emits each term's
// group as one postings value; neither struct nor slice has a lane, so
// both encode themselves. The probe job shuffles (consumer, item) as
// int32 → int32 and outputs [2]int32 → float64, all covered by the kind
// lanes.
//
// A posting is a varint doc and the weight's 8 little-endian bytes. The
// decoders accept exactly what the appenders write — minimal varints,
// docs in [0, 2³¹), a count the bytes can back, no trailing bytes — so
// a blob either decodes to a value that encodes back to the same bytes
// or is refused (FuzzPostingsDecode): a damaged index blob becomes an
// error, not a doc id that indexes past the probe's tables.

// postings is one term's group of the pruned index.
type postings []posting

// minPostingBytes is the least a posting takes: a one-byte varint doc
// and the weight.
const minPostingBytes = 9

var errCorruptPosting = errors.New("simjoin: corrupt posting")

// AppendBinary implements encoding.BinaryAppender: the engine's codec
// appends into its own scratch, so encoding a posting allocates nothing.
func (p posting) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendVarint(buf, int64(p.doc))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.w)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *posting) UnmarshalBinary(data []byte) error {
	rest, err := p.decode(data)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes", errCorruptPosting, len(rest))
	}
	return err
}

// AppendBinary implements encoding.BinaryAppender: a uvarint count, then
// the postings.
func (ps postings) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	for _, p := range ps {
		buf, _ = p.AppendBinary(buf)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The count is
// checked against the bytes that follow it before the group is sized.
func (ps *postings) UnmarshalBinary(data []byte) error {
	n, k := uvarint(data)
	if k <= 0 || n > uint64(len(data)-k)/minPostingBytes {
		return fmt.Errorf("%w count: past the bytes that follow it", errCorruptPosting)
	}
	data = data[k:]
	out := make(postings, n)
	for i := range out {
		var err error
		if data, err = out[i].decode(data); err != nil {
			return fmt.Errorf("%w (%d of %d)", err, i, n)
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errCorruptPosting, len(data))
	}
	*ps = out
	return nil
}

// decode reads one posting from the front of data and returns the rest.
func (p *posting) decode(data []byte) ([]byte, error) {
	ux, k := uvarint(data)
	doc := int64(ux>>1) ^ -int64(ux&1) // zig-zag, as binary.Varint
	if k <= 0 || doc < 0 || doc > math.MaxInt32 || len(data)-k < 8 {
		return nil, errCorruptPosting
	}
	*p = posting{doc: int32(doc), w: math.Float64frombits(binary.LittleEndian.Uint64(data[k:]))}
	return data[k+8:], nil
}

// uvarint is binary.Uvarint that also refuses a padded encoding (a
// varint with a zero final byte), which AppendUvarint never writes.
func uvarint(data []byte) (uint64, int) {
	x, n := binary.Uvarint(data)
	if n > 1 && data[n-1] == 0 {
		return 0, -1
	}
	return x, n
}

// encodeIndex packs the pruned index the probe job's map reads — the
// items posted under each term, by rank — into the job's parameters: a
// uvarint rank count, then per rank a uvarint item count and the items
// as uvarints. Only the items travel: the probe reads no weight.
func encodeIndex(index [][]int32) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(index)))
	for _, docs := range index {
		buf = binary.AppendUvarint(buf, uint64(len(docs)))
		for _, d := range docs {
			buf = binary.AppendUvarint(buf, uint64(d))
		}
	}
	return buf
}

var errCorruptIndex = errors.New("simjoin: corrupt index parameters")

// decodeIndex is encodeIndex's inverse on the workers. It accepts exactly
// what encodeIndex writes — minimal varints, counts the bytes that follow
// can back, no trailing bytes — with every item below numItems, so a
// damaged blob is refused instead of indexing past the probe's tables
// (FuzzIndexParams).
func decodeIndex(data []byte, numItems int) ([][]int32, error) {
	n, k := uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return nil, fmt.Errorf("%w: term count", errCorruptIndex)
	}
	data = data[k:]
	index := make([][]int32, n)
	for r := range index {
		c, k := uvarint(data)
		if k <= 0 || c > uint64(len(data)-k) {
			return nil, fmt.Errorf("%w: item count of term %d", errCorruptIndex, r)
		}
		data = data[k:]
		if c == 0 {
			continue
		}
		docs := make([]int32, c)
		for i := range docs {
			d, k := uvarint(data)
			if k <= 0 || d >= uint64(numItems) {
				return nil, fmt.Errorf("%w: item %d of term %d", errCorruptIndex, i, r)
			}
			docs[i], data = int32(d), data[k:]
		}
		index[r] = docs
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorruptIndex, len(data))
	}
	return index, nil
}
