package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
)

// The spilling and dist shuffle backends of internal/mapreduce serialize
// a struct value only if it encodes itself — encoding.BinaryAppender on
// the type, encoding.BinaryUnmarshaler on its pointer (see laneFor in
// mapreduce/codeclane.go) — and the dist backend
// serializes resident state and reduce output the same way. This file
// gives the matching algorithms' value types that compact binary form,
// so that GreedyMR, StackMR, StackGreedyMR and StackMRStrict run
// unchanged on every backend. Every node-view job is a state job, so no
// shuffled message carries a node's state: the stack jobs' dualMsg is an
// edge id plus a float, and edgeMsg, the message of GreedyMR and the
// maximal-matching stages, is a scalar that takes the codec's int32
// column without coming here. What remains are the records the jobs keep
// resident and emit (nodeState, stackNode, mmNode).
//
// The engine's codec calls AppendBinary with its column scratch, so
// encoding a record allocates nothing. A struct has no lane in the
// engine's codec: without these methods a job over these types is
// refused off the memory backend.

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

// spillReader decodes the buffers produced here and the dist jobs'
// parameters (distjobs.go); the first malformed field poisons the reader
// and the final err() call reports it. It accepts exactly what the
// appenders write — minimal varints, ids that fit their 32 bits, no
// unknown tag or flag bits — so a buffer either decodes to a value that
// encodes back to the same bytes or is refused (FuzzCoreMessageDecode,
// FuzzJobParams): bytes that arrive damaged from a socket or a run file
// become an error, not a slightly different message.
type spillReader struct {
	data []byte
	bad  bool
}

func (r *spillReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.data)
	if n <= 0 || (n > 1 && r.data[n-1] == 0) { // truncated, overflowing, or padded
		r.bad = true
		return 0
	}
	r.data = r.data[n:]
	return x
}

func (r *spillReader) varint() int64 {
	ux := r.uvarint() // zig-zag, as binary.Varint
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// id reads an edge or node id: a varint that fits an int32.
func (r *spillReader) id() int32 {
	x := r.varint()
	if x != int64(int32(x)) {
		r.bad = true
	}
	return int32(x)
}

// tag reads a tag or flag byte, which may carry only the bits in
// allowed.
func (r *spillReader) tag(allowed byte) byte {
	t := r.byte()
	if t&^allowed != 0 {
		r.bad = true
	}
	return t
}

// count reads an element count and checks it against the bytes left,
// given the least an element can take, before anything is sized from it.
func (r *spillReader) count(minElemBytes int) int {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.data)/minElemBytes) {
		r.bad = true
		return 0
	}
	return int(n)
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

// minHalfBytes is the least a half takes on the wire: two one-byte
// varints and the weight.
const minHalfBytes = 10

func (r *spillReader) half() half {
	return half{
		ID:    r.id(),
		Other: graph.NodeID(r.id()),
		W:     r.float(),
	}
}

func (r *spillReader) nodeState() nodeState {
	st := nodeState{B: int(r.varint())}
	n := r.count(minHalfBytes)
	if r.bad {
		return st
	}
	st.Adj = make([]half, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		st.Adj = append(st.Adj, r.half())
	}
	return st
}

func (r *spillReader) mmNode() mmNode {
	st := mmNode{B: int(r.varint())}
	n := r.count(minHalfBytes + 1)
	if r.bad {
		return st
	}
	st.Adj = make([]mmEdge, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		e := mmEdge{half: r.half()}
		flags := r.tag(1<<5 - 1)
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
		return fmt.Errorf("core: corrupt %s", what)
	}
	if len(r.data) != 0 {
		return fmt.Errorf("core: %d trailing bytes after %s", len(r.data), what)
	}
	return nil
}

// --- dualMsg ------------------------------------------------------------

// AppendBinary implements encoding.BinaryAppender.
func (m dualMsg) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendVarint(buf, int64(m.edge))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.yOverB)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *dualMsg) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	*m = dualMsg{edge: r.id(), yOverB: r.float()}
	return r.err("dualMsg")
}

// --- reduce-output types -----------------------------------------------
//
// The distributed runtime streams reduce output (and resident Dataset
// partitions) between processes, so the jobs' output value types need
// the same compact binary form the intermediate messages already have.
// The spilling backend never serializes these (it spills intermediates
// only); the codecs exist for the wire.

// AppendBinary implements encoding.BinaryAppender.
func (s nodeState) AppendBinary(buf []byte) ([]byte, error) {
	return appendNodeState(buf, &s), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *nodeState) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	*s = r.nodeState()
	return r.err("nodeState")
}

// AppendBinary implements encoding.BinaryAppender.
func (s mmNode) AppendBinary(buf []byte) ([]byte, error) {
	return appendMMNode(buf, &s), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *mmNode) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	*s = r.mmNode()
	return r.err("mmNode")
}

// AppendBinary implements encoding.BinaryAppender.
func (s stackNode) AppendBinary(buf []byte) ([]byte, error) {
	buf = appendNodeState(buf, &s.nodeState)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Y)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *stackNode) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	*s = stackNode{nodeState: r.nodeState(), Y: r.float()}
	return r.err("stackNode")
}

// --- pop records ---------------------------------------------------------

// AppendBinary implements encoding.BinaryAppender.
func (n popNode) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendVarint(buf, int64(n.Residual))
	buf = binary.AppendUvarint(buf, uint64(len(n.Edges)))
	for _, ei := range n.Edges {
		buf = binary.AppendVarint(buf, int64(ei))
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (n *popNode) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	*n = popNode{Residual: int(r.varint())}
	if k := r.count(1); !r.bad {
		n.Edges = make([]int32, k)
		for i := range n.Edges {
			n.Edges[i] = r.id()
		}
	}
	return r.err("popNode")
}

// AppendBinary implements encoding.BinaryAppender.
func (ds edgeDeltas) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(ds)))
	for _, d := range ds {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d))
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (ds *edgeDeltas) UnmarshalBinary(data []byte) error {
	r := &spillReader{data: data}
	out := make(edgeDeltas, r.count(8))
	for i := range out {
		out[i] = r.float()
	}
	*ds = out
	return r.err("edgeDeltas")
}
