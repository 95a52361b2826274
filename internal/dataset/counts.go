package dataset

import (
	"slices"

	"repro/internal/vector"
)

// termCounts accumulates one document's raw term counts over the
// vocabulary [0, vocab) and is reused from document to document: a
// dense count per term plus the terms touched so far, so producing a
// vector and clearing for the next one cost the document's length, not
// the vocabulary's.
type termCounts struct {
	counts  []float64
	touched []vector.TermID
	entries []vector.Entry
}

func newTermCounts(vocab int) *termCounts {
	return &termCounts{counts: make([]float64, vocab)}
}

// add counts one occurrence of t.
func (c *termCounts) add(t vector.TermID) {
	if c.counts[t] == 0 {
		c.touched = append(c.touched, t)
	}
	c.counts[t]++
}

// vector returns the counts accumulated since the last call as a sparse
// vector and clears them.
func (c *termCounts) vector() vector.Sparse {
	slices.Sort(c.touched)
	c.entries = c.entries[:0]
	for _, t := range c.touched {
		c.entries = append(c.entries, vector.Entry{Term: t, Weight: c.counts[t]})
		c.counts[t] = 0
	}
	c.touched = c.touched[:0]
	return vector.FromEntries(c.entries)
}
