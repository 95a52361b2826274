package simjoin

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The index job shuffles posting values; this compact binary form lets
// the job run on the spilling and dist shuffle backends of
// internal/mapreduce (a struct has no lane in the engine's codec; a
// []posting group is wire-able because its element marshals itself).
// The probe job shuffles (consumer, item) as int32 → int32 and outputs
// [2]int32 → float64, all covered by the engine's built-in column lanes.

// AppendBinary implements encoding.BinaryAppender: the engine's codec
// appends into its own scratch, so encoding a posting allocates nothing.
func (p posting) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendVarint(buf, int64(p.doc))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.w)), nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (p posting) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *posting) UnmarshalBinary(data []byte) error {
	doc, n := binary.Varint(data)
	if n <= 0 || len(data) != n+8 {
		return fmt.Errorf("simjoin: corrupt spilled posting (%d bytes)", len(data))
	}
	p.doc = int32(doc)
	p.w = math.Float64frombits(binary.LittleEndian.Uint64(data[n:]))
	return nil
}
