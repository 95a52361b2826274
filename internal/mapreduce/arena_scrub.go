//go:build !poolpoison

package mapreduce

// scrub readies a slice putFree checks in: clearIt zeroes what was
// written, so that stale pointers in recycled buffers cannot pin dead
// objects against the garbage collector. Test builds with -tags
// poolpoison poison instead (arena_poison.go).
func scrub[T any](s []T, clearIt bool) {
	if clearIt {
		clear(s)
	}
}
