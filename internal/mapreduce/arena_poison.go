//go:build poolpoison

package mapreduce

import (
	"reflect"
	"unsafe"
)

// poisonByte fills every byte of a poisoned slab.
const poisonByte = 0xa5

// scrub, in a test build with -tags poolpoison, fills a pointer-free
// slice with poisonByte over its whole capacity instead of zeroing what
// was written. A reader of a recycled buffer's stale contents, or of a
// slot its holder checked out and never wrote, then reads the pattern
// — not zeros, not the last round's records — and a golden breaks.
// Slices that hold pointers are zeroed as in a normal build: a pattern
// there would be a wild pointer to the garbage collector.
func scrub[T any](s []T, clearIt bool) {
	var zero T
	if !pointerFree(reflect.TypeOf(&zero).Elem()) {
		if clearIt {
			clear(s)
		}
		return
	}
	s = s[:cap(s)]
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(zero))
	for i := range b {
		b[i] = poisonByte
	}
}

// pointerFree reports whether values of t hold no pointer the garbage
// collector follows.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}
