package mapreduce

import (
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file implements the engine's round-lifetime memory recycler. The
// paper's algorithms run tens to hundreds of MapReduce rounds over the
// same node-keyed records with the same partitioning every round, so
// the shuffle's working memory — per-reducer bucket slices, the group
// sort's key/value gather arrays, the radix scratch — has the same
// shape in round N+1 as in round N. Without recycling, every round
// re-allocates all of it and the steady-state loop churns the heap;
// with it, round N+1 checks round N's buffers back out and the loop's
// engine-side allocation rate drops to (nearly) zero.
//
// Ownership discipline, which is what makes recycling safe:
//
//   - Buffers whose lifetime the engine fully controls are recycled
//     automatically: emit buckets (returned when a group stream has
//     copied them out, or when the spill backend has ingested them),
//     the group sort's gather/scratch/permutation arrays, and the
//     sorted key and value arrays (returned when the partition's group
//     stream closes — reduce functions must not retain the values slice
//     beyond the call, see ReduceFunc).
//   - Buffers that escape to the caller — reduce-output pair slices,
//     Dataset partitions, MapValues outputs — are NEVER reclaimed
//     automatically. They return to the pool only through an explicit
//     Dataset.Recycle (the caller asserting the data is dead) or
//     through Loop, which recycles each superseded state Dataset under
//     Loop's documented ownership contract.
//
// A BufferPool is keyed by concrete (K, V) pair type underneath (an
// iterative computation's jobs repeat the same types every round), and
// each per-type arena keys its free lists by partition index: partition
// p's buffers have stable sizes across rounds, so checking out p's own
// previous buffer almost always fits without over-allocation.

// BufferPool is an engine-owned recycler for round-lifetime buffers.
// NewDriver attaches one to every driver, so all iterative computations
// recycle automatically; a caller invoking RunDS directly can share
// one across jobs via Config.Pool. A nil pool disables recycling (every
// checkout allocates fresh, exactly the pre-pool behavior).
//
// The pool is safe for concurrent use by the tasks of one job. Its
// PooledBytes/PoolMisses counters are cumulative; per-job Stats record
// the delta accrued during that job.
type BufferPool struct {
	mu     sync.Mutex
	arenas map[reflect.Type]any // *roundArena[K, V] keyed by Pair[K, V] type
	bytes  atomic.Int64         // bytes served from free lists (hits)
	misses atomic.Int64         // checkouts that had to allocate
}

// NewBufferPool returns an empty recycler.
func NewBufferPool() *BufferPool {
	return &BufferPool{arenas: make(map[reflect.Type]any)}
}

// release empties every free list: the buffers the pool held become
// garbage as soon as nothing else points at them. The pool stays usable;
// its next checkouts allocate.
func (p *BufferPool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.arenas {
		a.(interface{ release() }).release()
	}
	clear(p.arenas)
}

// counters snapshots the cumulative pool statistics.
func (p *BufferPool) counters() (bytes, misses int64) {
	if p == nil {
		return 0, 0
	}
	return p.bytes.Load(), p.misses.Load()
}

// arenaFor returns the pool's arena for the concrete (K, V) pair type,
// sized for at least `parts` partitions. Resolved once per job (one map
// lookup, not one per record). Returns nil for a nil pool — every arena
// method tolerates a nil receiver by allocating fresh.
func arenaFor[K comparable, V any](p *BufferPool, parts int) *roundArena[K, V] {
	if p == nil {
		return nil
	}
	key := reflect.TypeOf((*Pair[K, V])(nil))
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.arenas[key]; ok {
		ar := a.(*roundArena[K, V])
		ar.ensure(parts)
		return ar
	}
	ar := &roundArena[K, V]{pool: p}
	ar.ensure(parts)
	p.arenas[key] = ar
	return ar
}

// arenaDepth caps each per-partition free list; deeper check-ins are
// dropped to the garbage collector so the pool cannot grow without
// bound.
const arenaDepth = 4

// roundArena holds one (K, V) type's free lists, keyed by partition.
type roundArena[K comparable, V any] struct {
	pool  *BufferPool
	mu    sync.Mutex
	parts []arenaPart[K, V]
}

// arenaPart is one partition's free lists, one per buffer class.
type arenaPart[K comparable, V any] struct {
	buckets [][]Pair[K, V] // emit-side partition buckets
	pairs   [][]Pair[K, V] // reduce-output / Dataset partition slices
	keys    [][]K          // group-sort key arrays (gather + sorted)
	vals    [][]V          // group-sort value arrays (gather + sorted)
	i32s    [][]int32      // split tags and permutation arrays
	radix   []*radixScratch
}

// ensure grows the partition table to cover at least n partitions.
func (a *roundArena[K, V]) ensure(n int) {
	a.mu.Lock()
	if len(a.parts) < n {
		a.parts = append(a.parts, make([]arenaPart[K, V], n-len(a.parts))...)
	}
	a.mu.Unlock()
}

// release empties the arena's free lists, keeping its partition table,
// so that an arena a caller still holds keeps working.
func (a *roundArena[K, V]) release() {
	a.mu.Lock()
	clear(a.parts)
	a.mu.Unlock()
}

// takeFit pops a free slice with cap >= n, or reports a miss.
func takeFit[T any](list *[][]T, n int) ([]T, bool) {
	l := *list
	for i := len(l) - 1; i >= 0; i-- {
		if cap(l[i]) >= n {
			s := l[i]
			l[i] = l[len(l)-1]
			l[len(l)-1] = nil
			*list = l[:len(l)-1]
			return s, true
		}
	}
	return nil, false
}

// putFree checks a slice into a free list, clearing what was written
// when clearIt is set (so stale pointers in recycled buffers cannot pin
// dead objects against the garbage collector; see scrub, which a
// poolpoison test build replaces). Full lists drop the slice.
//
// Only s[:len(s)] is cleared, not the whole capacity: a round loop on a
// shrinking input would otherwise re-zero its round-one-sized buffers
// every round. This keeps free-listed storage zero over its full
// capacity given the holders' discipline — a buffer is written only
// within its length and checked in at its high-water length (append
// only, or a get* slice returned at the length it was handed out) —
// because fresh and append-grown storage is zero beyond its length too.
func putFree[T any](list *[][]T, s []T, clearIt bool) {
	if cap(s) == 0 || len(*list) >= arenaDepth {
		return
	}
	scrub(s, clearIt)
	*list = append(*list, s[:0])
}

// hit and miss record one checkout's outcome in the pool counters.
func (a *roundArena[K, V]) hit(bytes uintptr) { a.pool.bytes.Add(int64(bytes)) }
func (a *roundArena[K, V]) miss()             { a.pool.misses.Add(1) }

// --- per-class accessors ----------------------------------------------
//
// get* methods return a buffer for partition p (allocating on miss, or
// always for a nil arena); put* methods check one back in. Slices with
// pointer-bearing element types are cleared on check-in.

// getBucket returns an empty bucket with capacity >= n.
func (a *roundArena[K, V]) getBucket(p, n int) []Pair[K, V] {
	if a == nil {
		return make([]Pair[K, V], 0, n)
	}
	a.mu.Lock()
	s, ok := takeFit(&a.parts[p].buckets, n)
	a.mu.Unlock()
	if !ok {
		a.miss()
		return make([]Pair[K, V], 0, n)
	}
	a.hit(uintptr(cap(s)) * unsafe.Sizeof(Pair[K, V]{}))
	return s[:0]
}

// putBucket checks a bucket back in. Undersized buckets (partial final
// buckets of a split) are dropped so the free lists hold only buckets a
// future emitter can fill without growing.
func (a *roundArena[K, V]) putBucket(p int, s []Pair[K, V]) {
	if a == nil || cap(s) < emitBucketCap {
		return
	}
	a.mu.Lock()
	putFree(&a.parts[p].buckets, s, true)
	a.mu.Unlock()
}

// getPairs returns an empty pair slice with capacity >= n (best effort:
// a partition's reduce-output size is stable across rounds, so the
// previous round's buffer almost always fits).
func (a *roundArena[K, V]) getPairs(p, n int) []Pair[K, V] {
	if a == nil {
		return make([]Pair[K, V], 0, n)
	}
	a.mu.Lock()
	s, ok := takeFit(&a.parts[p].pairs, n)
	a.mu.Unlock()
	if !ok {
		a.miss()
		return make([]Pair[K, V], 0, n)
	}
	a.hit(uintptr(cap(s)) * unsafe.Sizeof(Pair[K, V]{}))
	return s[:0]
}

// putPairs checks a reduce-output/Dataset pair slice back in.
func (a *roundArena[K, V]) putPairs(p int, s []Pair[K, V]) {
	if a == nil {
		return
	}
	a.mu.Lock()
	putFree(&a.parts[p].pairs, s, true)
	a.mu.Unlock()
}

// getKeys returns a key array of length n.
func (a *roundArena[K, V]) getKeys(p, n int) []K {
	if a == nil {
		return make([]K, n)
	}
	a.mu.Lock()
	s, ok := takeFit(&a.parts[p].keys, n)
	a.mu.Unlock()
	if !ok {
		a.miss()
		return make([]K, n)
	}
	var zk K
	a.hit(uintptr(cap(s)) * unsafe.Sizeof(zk))
	return s[:n]
}

func (a *roundArena[K, V]) putKeys(p int, s []K) {
	if a == nil {
		return
	}
	a.mu.Lock()
	putFree(&a.parts[p].keys, s, true)
	a.mu.Unlock()
}

// getVals returns a value array of length n.
func (a *roundArena[K, V]) getVals(p, n int) []V {
	if a == nil {
		return make([]V, n)
	}
	a.mu.Lock()
	s, ok := takeFit(&a.parts[p].vals, n)
	a.mu.Unlock()
	if !ok {
		a.miss()
		return make([]V, n)
	}
	var zv V
	a.hit(uintptr(cap(s)) * unsafe.Sizeof(zv))
	return s[:n]
}

func (a *roundArena[K, V]) putVals(p int, s []V) {
	if a == nil {
		return
	}
	a.mu.Lock()
	putFree(&a.parts[p].vals, s, true)
	a.mu.Unlock()
}

// getI32 returns an int32 array of length n (sort permutations).
func (a *roundArena[K, V]) getI32(p, n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	a.mu.Lock()
	s, ok := takeFit(&a.parts[p].i32s, n)
	a.mu.Unlock()
	if !ok {
		a.miss()
		return make([]int32, n)
	}
	a.hit(uintptr(cap(s)) * 4)
	return s[:n]
}

func (a *roundArena[K, V]) putI32(p int, s []int32) {
	if a == nil {
		return
	}
	a.mu.Lock()
	putFree(&a.parts[p].i32s, s, false)
	a.mu.Unlock()
}

// getRadix returns a radix scratch for partition p's group sort.
func (a *roundArena[K, V]) getRadix(p int) *radixScratch {
	if a == nil {
		return &radixScratch{}
	}
	a.mu.Lock()
	part := &a.parts[p]
	var rs *radixScratch
	if n := len(part.radix); n > 0 {
		rs = part.radix[n-1]
		part.radix[n-1] = nil
		part.radix = part.radix[:n-1]
	}
	a.mu.Unlock()
	if rs == nil {
		a.miss()
		return &radixScratch{}
	}
	a.hit(uintptr(cap(rs.counts)) * 4)
	return rs
}

func (a *roundArena[K, V]) putRadix(p int, rs *radixScratch) {
	if a == nil || rs == nil {
		return
	}
	a.mu.Lock()
	if len(a.parts[p].radix) < arenaDepth {
		a.parts[p].radix = append(a.parts[p].radix, rs)
	}
	a.mu.Unlock()
}
