// Package vector implements the sparse term vectors used to represent
// items and consumers (paper Section 4, "Edge weights"): each document is
// a sparse map from term ids to non-negative weights, and the similarity
// between an item and a consumer is the dot product of their vectors.
//
// Vectors are stored as parallel slices sorted by term id, which makes
// dot products a linear merge and lets the similarity-join code iterate
// terms in a canonical order.
package vector

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// TermID identifies a term (tag or stemmed word) in the vocabulary.
type TermID int32

// Entry is one (term, weight) component of a sparse vector.
type Entry struct {
	Term   TermID
	Weight float64
}

// Sparse is an immutable sparse vector with entries sorted by term id.
// Construct with FromEntries or via Builder; the zero value is the empty
// vector.
type Sparse struct {
	entries []Entry
}

// FromEntries builds a sparse vector from entries. Entries are copied,
// sorted by term, and entries with the same term are summed. Entries with
// zero weight are dropped; negative or non-finite weights panic (tf·idf
// weights are non-negative by construction).
func FromEntries(entries []Entry) Sparse {
	cp := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Weight == 0 {
			continue
		}
		if e.Weight < 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			panic(fmt.Sprintf("vector: invalid weight %v for term %d", e.Weight, e.Term))
		}
		cp = append(cp, e)
	}
	slices.SortFunc(cp, func(a, b Entry) int { return cmp.Compare(a.Term, b.Term) })
	// Merge duplicates.
	out := cp[:0]
	for _, e := range cp {
		if n := len(out); n > 0 && out[n-1].Term == e.Term {
			out[n-1].Weight += e.Weight
		} else {
			out = append(out, e)
		}
	}
	return Sparse{entries: out}
}

// Len returns the number of non-zero components.
func (v Sparse) Len() int { return len(v.entries) }

// IsZero reports whether the vector has no components.
func (v Sparse) IsZero() bool { return len(v.entries) == 0 }

// Entries returns the sorted components. Callers must not modify the
// returned slice.
func (v Sparse) Entries() []Entry { return v.entries }

// At returns the i-th component in term order.
func (v Sparse) At(i int) Entry { return v.entries[i] }

// Weight returns the weight of the given term, or 0 if absent.
func (v Sparse) Weight(t TermID) float64 {
	i := sort.Search(len(v.entries), func(i int) bool { return v.entries[i].Term >= t })
	if i < len(v.entries) && v.entries[i].Term == t {
		return v.entries[i].Weight
	}
	return 0
}

// Dot returns the dot product v·u, the paper's similarity function
// w(t_i, c_j) = v(t_i) · v(c_j).
func (v Sparse) Dot(u Sparse) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(v.entries) && j < len(u.entries) {
		a, b := v.entries[i], u.entries[j]
		switch {
		case a.Term < b.Term:
			i++
		case a.Term > b.Term:
			j++
		default:
			sum += a.Weight * b.Weight
			i++
			j++
		}
	}
	return sum
}

// Norm returns the Euclidean norm ‖v‖₂.
func (v Sparse) Norm() float64 {
	var s float64
	for _, e := range v.entries {
		s += e.Weight * e.Weight
	}
	return math.Sqrt(s)
}

// Sum returns the sum of component weights (the L1 norm, since weights
// are non-negative).
func (v Sparse) Sum() float64 {
	var s float64
	for _, e := range v.entries {
		s += e.Weight
	}
	return s
}

// MaxWeight returns the largest component weight (0 for the empty
// vector). Prefix-filtering bounds use it.
func (v Sparse) MaxWeight() float64 {
	var m float64
	for _, e := range v.entries {
		if e.Weight > m {
			m = e.Weight
		}
	}
	return m
}

// Cosine returns the cosine similarity between v and u, or 0 if either is
// the zero vector.
func (v Sparse) Cosine(u Sparse) float64 {
	nv, nu := v.Norm(), u.Norm()
	if nv == 0 || nu == 0 {
		return 0
	}
	return v.Dot(u) / (nv * nu)
}

// Normalize returns v scaled to unit Euclidean norm (or v itself if it is
// zero).
func (v Sparse) Normalize() Sparse {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Scale returns v multiplied by a non-negative factor.
func (v Sparse) Scale(f float64) Sparse {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("vector: invalid scale factor %v", f))
	}
	if f == 0 {
		return Sparse{}
	}
	out := make([]Entry, len(v.entries))
	for i, e := range v.entries {
		out[i] = Entry{Term: e.Term, Weight: e.Weight * f}
	}
	return Sparse{entries: out}
}

// Add returns the component-wise sum v + u.
func (v Sparse) Add(u Sparse) Sparse {
	out := make([]Entry, 0, len(v.entries)+len(u.entries))
	i, j := 0, 0
	for i < len(v.entries) || j < len(u.entries) {
		switch {
		case j >= len(u.entries) || (i < len(v.entries) && v.entries[i].Term < u.entries[j].Term):
			out = append(out, v.entries[i])
			i++
		case i >= len(v.entries) || u.entries[j].Term < v.entries[i].Term:
			out = append(out, u.entries[j])
			j++
		default:
			out = append(out, Entry{Term: v.entries[i].Term,
				Weight: v.entries[i].Weight + u.entries[j].Weight})
			i++
			j++
		}
	}
	return Sparse{entries: out}
}

// String renders the vector as "{term:weight, ...}".
func (v Sparse) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range v.entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%.4g", e.Term, e.Weight)
	}
	b.WriteByte('}')
	return b.String()
}

// Builder accumulates term counts and produces a Sparse vector. It is the
// mutable companion of Sparse, for callers that build a few vectors over
// an open vocabulary (the examples); the dataset generators count into a
// dense array instead.
type Builder struct {
	weights map[TermID]float64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{weights: make(map[TermID]float64)}
}

// Add accumulates weight onto a term.
func (b *Builder) Add(t TermID, w float64) {
	b.weights[t] += w
}

// AddCount increments a term count by one.
func (b *Builder) AddCount(t TermID) { b.Add(t, 1) }

// Len returns the number of distinct terms accumulated.
func (b *Builder) Len() int { return len(b.weights) }

// Vector produces the immutable sparse vector. The builder remains
// usable.
func (b *Builder) Vector() Sparse {
	entries := make([]Entry, 0, len(b.weights))
	for t, w := range b.weights {
		//lint:allow determinism — FromEntries sorts by Term before any caller sees the slice, and map keys are unique, so iteration order never escapes
		entries = append(entries, Entry{Term: t, Weight: w})
	}
	return FromEntries(entries)
}
