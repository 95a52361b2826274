package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestJobParamsRefuseMalformed: the parameter blobs the stack jobs and the
// maximal-matching stages ship to the dist workers decode to exactly what
// was encoded, and anything their encoders never write is refused — the
// stack decoder used to truncate a layer id past 32 bits to its low half
// and accept padded varints. The stack parameters carry no duals: those
// live in the records.
func TestJobParamsRefuseMalformed(t *testing.T) {
	stack := encodeStackParams([]int32{3, 70000, -2}, 0.2)
	layer, threshold, err := decodeStackParams(stack)
	if err != nil || !reflect.DeepEqual(layer, []int32{3, 70000, -2}) || threshold != 0.2 {
		t.Fatalf("stack params round trip: %v %v, %v", layer, threshold, err)
	}
	mmCfg := maximalConfig{strategy: MarkHeaviest, seed: -1 << 40}
	mm := encodeMMParams(mmCfg, 17)
	if cfg, iter, err := decodeMMParams(mm); err != nil || cfg != mmCfg || iter != 17 {
		t.Fatalf("mm params round trip: %+v %d, %v", cfg, iter, err)
	}

	pastInt32 := binary.AppendVarint([]byte{1}, 1<<33) // one layer edge
	pastInt32 = binary.LittleEndian.AppendUint64(pastInt32, math.Float64bits(0.2))
	for _, tc := range []struct {
		name  string
		stack bool
		data  []byte
	}{
		{"stack/truncated", true, stack[:len(stack)-1]},
		{"stack/trailing-byte", true, append(stack[:len(stack):len(stack)], 0)},
		{"stack/id-past-32-bits", true, pastInt32},
		{"stack/padded-varint", true, append([]byte{0x83, 0x00}, stack[1:]...)},
		{"stack/empty", true, nil},
		{"mm/truncated", false, mm[:len(mm)-1]},
		{"mm/trailing-byte", false, append(mm[:len(mm):len(mm)], 0)},
		{"mm/unknown-strategy", false, append([]byte{2}, mm[1:]...)},
		{"mm/iteration-past-32-bits", false, binary.AppendVarint([]byte{0, 0}, 1<<40)},
		{"mm/empty", false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.stack {
				_, _, err = decodeStackParams(tc.data)
			} else {
				_, _, err = decodeMMParams(tc.data)
			}
			if err == nil || !strings.Contains(err.Error(), "job parameters") {
				t.Fatalf("decoding %x: err = %v, want a refusal naming the job parameters", tc.data, err)
			}
		})
	}
}

// FuzzJobParams holds the parameter decoders — the stack jobs', the
// maximal-matching stages' and GreedyMR's node view build's — to the
// contract of FuzzCoreMessageDecode: an error, or values whose encoding is
// the input byte for byte; never a panic. kind picks the decoder. The
// checked-in corpus under testdata/fuzz/FuzzJobParams is the cases of
// TestJobParamsRefuseMalformed, a view key and a view key with a trailing
// byte.
func FuzzJobParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var back []byte
		switch kind % 3 {
		case 0:
			layer, threshold, err := decodeStackParams(data)
			if err != nil {
				return
			}
			back = encodeStackParams(layer, threshold)
		case 1:
			cfg, iter, err := decodeMMParams(data)
			if err != nil {
				return
			}
			back = encodeMMParams(cfg, iter)
		default:
			key, err := decodeViewParams(data)
			if err != nil {
				return
			}
			back = key.params()
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("decoded without error but encodes differently:\n in  %x\n out %x", data, back)
		}
	})
}
