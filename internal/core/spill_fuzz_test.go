package core

import (
	"bytes"
	"encoding"
	"testing"
)

// FuzzCoreMessageDecode feeds every UnmarshalBinary of spill.go — what
// the spill merge and a dist worker's socket hand each shuffled record
// and each resident state to — arbitrary bytes. The contract: an error,
// or a value whose AppendBinary reproduces the input byte for byte (so
// nothing a decoder accepts is silently a different message); never a
// panic, and never a slice sized from a count the remaining bytes could
// not back. kind selects the type: dualMsg, stackNode, nodeState, mmNode,
// and the pop phases' records popNode and edgeDeltas.
// The checked-in corpus under testdata/fuzz/FuzzCoreMessageDecode is the
// cases of TestMessageCodecsRoundTrip and TestMessageCodecsRejectCorruptData
// plus the shapes the strict reader exists for: a padded varint, an id
// past 32 bits, an unknown flag bit, an over-declared adjacency count —
// and the bytes of types since merged or deleted, fed to their
// successors' decoders: as dualMsg-self and filterMsg-self, the
// self-message bytes dualMsg and filterMsg had while they still carried
// the node's state, which must be refused, not read as some edge's
// message; as filterMsg-edge, a filterMsg, which is a dualMsg now; as
// mmOut-* and unknown-tag-bit, the cleanup stage's output before it
// became an mmNode.
// (edgeMsg, the message of GreedyMR and the maximal-matching stages, is an
// int32 and has no decoder of its own.)
func FuzzCoreMessageDecode(f *testing.F) {
	heldState := func(st *nodeState) int { return cap(st.Adj) * minHalfBytes }
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		switch kind % 6 {
		case 0:
			fuzzMessage(t, data, func(*dualMsg) int { return 0 })
		case 1:
			fuzzMessage(t, data, func(st *stackNode) int { return heldState(&st.nodeState) })
		case 2:
			fuzzMessage(t, data, heldState)
		case 3:
			fuzzMessage(t, data, func(st *mmNode) int { return cap(st.Adj) * (minHalfBytes + 1) })
		case 4:
			fuzzMessage(t, data, func(n *popNode) int { return cap(n.Edges) })
		case 5:
			fuzzMessage(t, data, func(ds *edgeDeltas) int { return cap(*ds) * 8 })
		}
	})
}

// fuzzMessage decodes data as a T. held reports the least number of
// input bytes the slices the decoder allocated stand for; it may not
// exceed the input, whether or not the decode went on to fail.
func fuzzMessage[T any, PT interface {
	*T
	encoding.BinaryUnmarshaler
	encoding.BinaryAppender
}](t *testing.T, data []byte, held func(*T) int) {
	var v T
	err := PT(&v).UnmarshalBinary(data)
	if n := held(&v); n > len(data) {
		t.Fatalf("%T: decoder sized %d bytes' worth of elements from a %d-byte input", v, n, len(data))
	}
	if err != nil {
		return
	}
	back, err := PT(&v).AppendBinary(nil)
	if err != nil {
		t.Fatalf("%T: re-encoding a decoded value: %v", v, err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("%T: decoded without error but encodes differently:\n in  %x\n out %x", v, data, back)
	}
}
