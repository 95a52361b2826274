package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
)

// The spilling and dist shuffle backends of internal/mapreduce serialize
// intermediate values through encoding.BinaryMarshaler (see laneFor in
// mapreduce/codeclane.go for the resolution order). This file gives the
// matching algorithms' message types a compact binary form so that
// GreedyMR, StackMR, StackGreedyMR and StackMRStrict run unchanged on
// every shuffle backend: a message is a tag byte plus either the node's
// own state (adjacency list) or a per-edge payload.
//
// The encoding is explicit about pointer presence (tag bits), so a
// round trip preserves the nil-ness that the reducers branch on — the
// reason these types carry their own encoding (a struct has no lane
// in the engine's codec; without these methods the job is refused).

const (
	tagSelf  = 1 << 0 // message carries the node's own state
	tagFlagA = 1 << 1 // per-message boolean (proposed / flag / alive)
)

// --- shared pieces -----------------------------------------------------

func appendHalf(buf []byte, h half) []byte {
	buf = binary.AppendVarint(buf, int64(h.ID))
	buf = binary.AppendVarint(buf, int64(h.Other))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.W))
}

func appendNodeState(buf []byte, st *nodeState) []byte {
	buf = binary.AppendVarint(buf, int64(st.B))
	buf = binary.AppendUvarint(buf, uint64(len(st.Adj)))
	for _, h := range st.Adj {
		buf = appendHalf(buf, h)
	}
	return buf
}

func appendMMNode(buf []byte, st *mmNode) []byte {
	buf = binary.AppendVarint(buf, int64(st.B))
	buf = binary.AppendUvarint(buf, uint64(len(st.Adj)))
	for _, e := range st.Adj {
		buf = appendHalf(buf, e.half)
		var flags byte
		if e.markedBySelf {
			flags |= 1 << 0
		}
		if e.markedByOther {
			flags |= 1 << 1
		}
		if e.selBySelf {
			flags |= 1 << 2
		}
		if e.selByOther {
			flags |= 1 << 3
		}
		if e.inF {
			flags |= 1 << 4
		}
		buf = append(buf, flags)
	}
	return buf
}

// spillReader decodes the buffers produced above; the first malformed
// field poisons the reader and the final err() call reports it.
type spillReader struct {
	data []byte
	bad  bool
}

func (r *spillReader) varint() int64 {
	x, n := binary.Varint(r.data)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.data = r.data[n:]
	return x
}

func (r *spillReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.data = r.data[n:]
	return x
}

func (r *spillReader) float() float64 {
	if len(r.data) < 8 {
		r.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

func (r *spillReader) byte() byte {
	if len(r.data) < 1 {
		r.bad = true
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *spillReader) half() half {
	return half{
		ID:    int32(r.varint()),
		Other: graph.NodeID(r.varint()),
		W:     r.float(),
	}
}

func (r *spillReader) nodeState() *nodeState {
	st := &nodeState{B: int(r.varint())}
	n := r.uvarint()
	if r.bad || n > uint64(len(r.data)) { // each half needs >= 10 bytes
		r.bad = true
		return st
	}
	st.Adj = make([]half, 0, n)
	for i := uint64(0); i < n && !r.bad; i++ {
		st.Adj = append(st.Adj, r.half())
	}
	return st
}

func (r *spillReader) mmNode() *mmNode {
	st := &mmNode{B: int(r.varint())}
	n := r.uvarint()
	if r.bad || n > uint64(len(r.data)) {
		r.bad = true
		return st
	}
	st.Adj = make([]mmEdge, 0, n)
	for i := uint64(0); i < n && !r.bad; i++ {
		e := mmEdge{half: r.half()}
		flags := r.byte()
		e.markedBySelf = flags&(1<<0) != 0
		e.markedByOther = flags&(1<<1) != 0
		e.selBySelf = flags&(1<<2) != 0
		e.selByOther = flags&(1<<3) != 0
		e.inF = flags&(1<<4) != 0
		st.Adj = append(st.Adj, e)
	}
	return st
}

func (r *spillReader) err(what string) error {
	if r.bad {
		return fmt.Errorf("core: corrupt spilled %s", what)
	}
	if len(r.data) != 0 {
		return fmt.Errorf("core: %d trailing bytes after spilled %s", len(r.data), what)
	}
	return nil
}

// --- greedyMsg ---------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler for the spilling
// shuffle backend.
func (m greedyMsg) MarshalBinary() ([]byte, error) {
	var tag byte
	if m.self {
		tag |= tagSelf
	}
	if m.proposed {
		tag |= tagFlagA
	}
	buf := []byte{tag}
	if m.self {
		return appendNodeState(buf, &m.state), nil
	}
	return binary.AppendVarint(buf, int64(m.edge)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *greedyMsg) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	tag := r.byte()
	*m = greedyMsg{proposed: tag&tagFlagA != 0, self: tag&tagSelf != 0}
	if m.self {
		m.state = *r.nodeState()
	} else {
		m.edge = int32(r.varint())
	}
	return r.err("greedyMsg")
}

// --- mmMsg -------------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler for the spilling
// shuffle backend.
func (m mmMsg) MarshalBinary() ([]byte, error) {
	var tag byte
	if m.self != nil {
		tag |= tagSelf
	}
	if m.flag {
		tag |= tagFlagA
	}
	buf := []byte{tag}
	if m.self != nil {
		return appendMMNode(buf, m.self), nil
	}
	return binary.AppendVarint(buf, int64(m.edge)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *mmMsg) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	tag := r.byte()
	*m = mmMsg{flag: tag&tagFlagA != 0}
	if tag&tagSelf != 0 {
		m.self = r.mmNode()
	} else {
		m.edge = int32(r.varint())
	}
	return r.err("mmMsg")
}

// --- cleanupMsg --------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler for the spilling
// shuffle backend.
func (m cleanupMsg) MarshalBinary() ([]byte, error) {
	var tag byte
	if m.self != nil {
		tag |= tagSelf
	}
	if m.alive {
		tag |= tagFlagA
	}
	buf := []byte{tag}
	if m.self != nil {
		return appendMMNode(buf, m.self), nil
	}
	return binary.AppendVarint(buf, int64(m.edge)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *cleanupMsg) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	tag := r.byte()
	*m = cleanupMsg{alive: tag&tagFlagA != 0}
	if tag&tagSelf != 0 {
		m.self = r.mmNode()
	} else {
		m.edge = int32(r.varint())
	}
	return r.err("cleanupMsg")
}

// --- dualMsg / filterMsg -----------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler for the spilling
// shuffle backend.
func (m dualMsg) MarshalBinary() ([]byte, error) {
	return marshalEdgeValueMsg(m.self, m.edge, m.yOverB)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *dualMsg) UnmarshalBinary(data []byte) error {
	self, edge, y, err := unmarshalEdgeValueMsg(data, "dualMsg")
	*m = dualMsg{self: self, edge: edge, yOverB: y}
	return err
}

// MarshalBinary implements encoding.BinaryMarshaler for the spilling
// shuffle backend.
func (m filterMsg) MarshalBinary() ([]byte, error) {
	return marshalEdgeValueMsg(m.self, m.edge, m.yOverB)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *filterMsg) UnmarshalBinary(data []byte) error {
	self, edge, y, err := unmarshalEdgeValueMsg(data, "filterMsg")
	*m = filterMsg{self: self, edge: edge, yOverB: y}
	return err
}

// --- reduce-output types -----------------------------------------------
//
// The distributed runtime streams reduce output (and resident Dataset
// partitions) between processes, so the jobs' output value types need
// the same compact binary form the intermediate messages already have.
// The spilling backend never serializes these (it spills intermediates
// only); the codecs exist for the wire.

// MarshalBinary implements encoding.BinaryMarshaler.
func (s nodeState) MarshalBinary() ([]byte, error) {
	return appendNodeState(nil, &s), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *nodeState) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	*s = *r.nodeState()
	return r.err("nodeState")
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s mmNode) MarshalBinary() ([]byte, error) {
	return appendMMNode(nil, &s), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *mmNode) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	*s = *r.mmNode()
	return r.err("mmNode")
}

func appendInt32s(buf []byte, xs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

func (r *spillReader) int32s() []int32 {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.data)) {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	xs := make([]int32, 0, n)
	for i := uint64(0); i < n && !r.bad; i++ {
		xs = append(xs, int32(r.varint()))
	}
	return xs
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (o mmOut) MarshalBinary() ([]byte, error) {
	var tag byte
	if o.state != nil {
		tag |= tagSelf
	}
	buf := appendInt32s([]byte{tag}, o.matched)
	if o.state != nil {
		buf = appendMMNode(buf, o.state)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (o *mmOut) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	tag := r.byte()
	*o = mmOut{matched: r.int32s()}
	if tag&tagSelf != 0 {
		o.state = r.mmNode()
	}
	return r.err("mmOut")
}

// marshalEdgeValueMsg encodes the shared shape of dualMsg and filterMsg:
// either the node's state, or (edge, yOverB).
func marshalEdgeValueMsg(self *nodeState, edge int32, yOverB float64) ([]byte, error) {
	if self != nil {
		return appendNodeState([]byte{tagSelf}, self), nil
	}
	buf := binary.AppendVarint([]byte{0}, int64(edge))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(yOverB)), nil
}

func unmarshalEdgeValueMsg(data []byte, what string) (*nodeState, int32, float64, error) {
	r := &spillReader{data: data}
	if r.byte()&tagSelf != 0 {
		self := r.nodeState()
		return self, 0, 0, r.err(what)
	}
	edge := int32(r.varint())
	y := r.float()
	return nil, edge, y, r.err(what)
}
