package mapreduce

import (
	"cmp"
	"slices"
)

// This file gives the spilling shuffle backend the same comparator-free
// sorting the in-memory backend's group sort uses. The spill sorter
// orders records by (key, sequence); its generic comparator sort —
// O(n log n) indirect calls through a closure per comparison — was the
// bulk of the documented ~7x gap between the spill and memory backends.
// For every key type with an order-preserving projection (all scalar
// kinds, [2]int32, and string-ordered keys via their 8-byte prefix) the
// run buffers sort with linear radix passes over the image each record
// already carries (spillRec.img, cached at ingest).

// spillBufSort returns a radix-based sort for spill run buffers,
// ordering by (key, seq) exactly as the sorter's record comparator
// would; every key kind takes one of its two paths, so extsort's
// comparator sort never runs on the shuffle's run buffers (it remains
// the contract the merge relies on and the order both paths must
// reproduce). The numeric path is one stable LSD radix pass over the
// key images followed by a sequence repair of every equal-image run,
// so image ties resolve by sequence without any comparator deciding
// between distinct keys; this is sound even for non-injective images
// (the two float zeros), because the record comparator itself orders
// keys by the same image. All remaining kinds order as strings (string
// kinds and the fmt fallback, matching keyShape.cmp): they radix-sort by
// their 8-byte prefix image and repair every multi-element
// equal-prefix run with a (key, seq) comparison sort; prefixes
// disambiguate most keys, so the runs are short.
//
// The returned closure owns a private radix scratch: extsort runs a
// sorter's buffer sorts one at a time on the ingest goroutine, so
// every spill of a partition reuses the same scratch with no locking.
func spillBufSort[K comparable, V any](shape keyShape[K]) func([]spillRec[K, V]) {
	var scr radixScratch
	var tmp []spillRec[K, V]
	if numFn, _ := shape.numericImage(); numFn != nil {
		return func(buf []spillRec[K, V]) {
			n := len(buf)
			if n < 2 {
				return
			}
			scr.keys = growU64(scr.keys, n)
			scr.perm = growI32(scr.perm, n)
			images, perm := scr.keys, scr.perm
			for i := range buf {
				images[i] = buf[i].img
				perm[i] = int32(i)
			}
			radixSortU64(images, perm, 0, &scr)
			// One radix pass over the images (stable on buffer order),
			// then restore sequence order inside every equal-image run.
			// Runs are short when keys repeat moderately — a handful of
			// records per key per buffer — so the repair is cheap; a
			// heavily skewed run falls back to a radix pass over its
			// sequence numbers rather than a comparison sort. This
			// replaces a full-buffer sequence pre-pass (several more
			// radix passes over 40 varying sequence bits) with work
			// proportional to the actual tie mass.
			for i := 0; i < n; {
				j := i + 1
				for j < n && images[j] == images[i] {
					j++
				}
				if run := perm[i:j]; len(run) > 1 {
					if len(run) > 64 {
						scr.keys2 = growU64(scr.keys2, len(run))
						seqs := scr.keys2
						for k, p := range run {
							seqs[k] = buf[p].seq
						}
						radixSortU64(seqs[:len(run)], run, 0, &scr)
					} else {
						slices.SortFunc(run, func(a, b int32) int {
							return cmp.Compare(buf[a].seq, buf[b].seq)
						})
					}
				}
				i = j
			}
			tmp = gatherRecs(buf, perm, tmp)
		}
	}
	cmpFn := shape.cmp()
	return func(buf []spillRec[K, V]) {
		n := len(buf)
		if n < 2 {
			return
		}
		scr.keys = growU64(scr.keys, n)
		scr.perm = growI32(scr.perm, n)
		prefixes, perm := scr.keys, scr.perm
		for i := range buf {
			prefixes[i] = buf[i].img
			perm[i] = int32(i)
		}
		radixSortU64(prefixes, perm, 0, &scr)
		for i := 0; i < n; {
			j := i + 1
			for j < n && prefixes[j] == prefixes[i] {
				j++
			}
			if j-i > 1 {
				// Equal prefixes: distinct keys may share the image
				// (long strings, embedded NULs, fmt collisions), and
				// equal keys still need their sequence order restored —
				// the prefix radix was stable on buffer order, not on
				// seq.
				run := perm[i:j]
				slices.SortFunc(run, func(a, b int32) int {
					if c := cmpFn(buf[a].key, buf[b].key); c != 0 {
						return c
					}
					return cmp.Compare(buf[a].seq, buf[b].seq)
				})
			}
			i = j
		}
		tmp = gatherRecs(buf, perm, tmp)
	}
}

// gatherRecs reorders buf in place so position i holds the record
// originally at perm[i], scattering through tmp (grown as needed and
// returned for reuse by the next spill).
func gatherRecs[K comparable, V any](buf []spillRec[K, V], perm []int32, tmp []spillRec[K, V]) []spillRec[K, V] {
	if cap(tmp) < len(buf) {
		tmp = make([]spillRec[K, V], len(buf))
	}
	tmp = tmp[:len(buf)]
	for i, p := range perm {
		tmp[i] = buf[p]
	}
	copy(buf, tmp)
	return tmp
}
