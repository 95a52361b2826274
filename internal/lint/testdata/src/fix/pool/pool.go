// sync.Pool check-out/check-in fixtures for the poolpair rule. getBuf
// and putBuf are discovered as wrappers (a function returning its Get
// is a check-out wrapper; one that only Puts is a check-in wrapper).
package pool

import "sync"

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

func leakNoPut() int {
	b := getBuf() // want `\[poolpair\] checked out of bufPool but never checked back in`
	return len(*b)
}

func leakOnEarlyReturn(fail bool) int {
	b := getBuf()
	if fail {
		return -1 // want `\[poolpair\] return leaks the buffer checked out of bufPool`
	}
	n := len(*b)
	putBuf(b)
	return n
}

func balancedDefer() int {
	b := getBuf()
	defer putBuf(b)
	return len(*b)
}

func balancedEveryPath(fail bool) int {
	b := getBuf()
	if fail {
		putBuf(b)
		return -1
	}
	n := len(*b)
	putBuf(b)
	return n
}

// transfersOwnership hands the buffer to the caller: the caller now
// owes the check-in, so no finding here.
func transfersOwnership() *[]byte {
	return getBuf()
}

type holder struct{ buf *[]byte }

// storesIntoField hands the buffer to the holder.
func storesIntoField(h *holder) {
	h.buf = getBuf()
}

func fill(b *[]byte) { *b = append((*b)[:0], 'x') }

// handsToCallee passes the fresh buffer straight to a callee: argument
// position is an ownership transfer.
func handsToCallee() {
	fill(getBuf())
}

// Free-list accessor pairs: two methods get<X>/put<X> of one type are a
// check-out and a check-in by their names alone, generic receivers
// included (the engine's roundArena).
type arena[T any] struct{ free [][]T }

func (a *arena[T]) getKeys(n int) []T {
	if l := len(a.free); l > 0 {
		s := a.free[l-1]
		a.free = a.free[:l-1]
		return s[:n]
	}
	return make([]T, n)
}

func (a *arena[T]) putKeys(s []T) { a.free = append(a.free, s[:0]) }

// getOnly has no put sibling: not a check-out.
func (a *arena[T]) getOnly() []T { return nil }

func arenaLeak[T any](a *arena[T]) int {
	keys := a.getKeys(8) // want `\[poolpair\] checked out of arena.Keys but never checked back in`
	return len(keys)
}

func arenaLeakOnEarlyReturn(a *arena[int], fail bool) int {
	keys := a.getKeys(8)
	if fail {
		return -1 // want `\[poolpair\] return leaks the buffer checked out of arena.Keys`
	}
	n := len(keys)
	a.putKeys(keys)
	return n
}

func sum(s []int) (n int) {
	for _, x := range s {
		n += x
	}
	return n
}

// arenaScratch lends the buffer to a callee and checks it back in: the
// callee borrows, it does not take over.
func arenaScratch(a *arena[int]) int {
	keys := a.getKeys(8)
	n := sum(keys) + len(a.getOnly())
	a.putKeys(keys)
	return n
}

// arenaReturnsLocal hands its check-out to the caller through a local.
func arenaReturnsLocal(a *arena[int]) []int {
	keys := a.getKeys(8)
	keys[0] = 1
	return keys
}

type sorted struct{ keys []int }

// arenaStores hands its check-outs to the struct: one through a field
// assignment of the local, one inside a composite literal.
func arenaStores(a *arena[int], into *sorted) sorted {
	keys := a.getKeys(8)
	into.keys = keys
	return sorted{keys: a.getKeys(4)}
}

var seenPool = sync.Pool{New: func() any { return new([]bool) }}

// probeMap is internal/simjoin/simjoin.go's probeMap without its
// deferred Put: every call of the map it returns leaks a stamp table.
func probeMap(numItems int) func(j int32) bool {
	return func(j int32) bool {
		table := seenPool.Get().(*[]bool) // want `\[poolpair\] checked out of seenPool but never checked back in`
		seen := *table
		return int(j) < numItems && len(seen) > int(j) && seen[j]
	}
}
