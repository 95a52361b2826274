// Package stats provides the small statistical toolkit behind the
// experimental harness: histograms with logarithmic binning (Figures 6
// and 7 plot similarity and capacity distributions on log scales), and
// summary statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// LogHistogram counts values in geometrically growing bins, the natural
// binning for the heavy-tailed capacity and similarity distributions of
// Figures 6-7.
type LogHistogram struct {
	Lo     float64 // lower edge of the first bin (must be > 0)
	Base   float64 // bin-edge growth factor (must be > 1)
	Counts []int
	Zero   int // values ≤ 0
	total  int
}

// NewLogHistogram creates a log-binned histogram with bin edges
// lo·base^i for i = 0..bins.
func NewLogHistogram(lo, base float64, bins int) *LogHistogram {
	if lo <= 0 || base <= 1 || bins < 1 {
		panic(fmt.Sprintf("stats: invalid log histogram (lo=%v base=%v bins=%d)", lo, base, bins))
	}
	return &LogHistogram{Lo: lo, Base: base, Counts: make([]int, bins)}
}

// Add records one value. Values below Lo count in bin 0; values beyond
// the last edge count in the last bin.
func (h *LogHistogram) Add(x float64) {
	h.total++
	if x <= 0 {
		h.Zero++
		return
	}
	i := 0
	if x > h.Lo {
		i = int(math.Log(x/h.Lo) / math.Log(h.Base))
	}
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the number of recorded values.
func (h *LogHistogram) Total() int { return h.total }

// BinLow returns the lower edge of bin i.
func (h *LogHistogram) BinLow(i int) float64 {
	return h.Lo * math.Pow(h.Base, float64(i))
}

// String renders non-empty bins as "[lo,hi): count" lines.
func (h *LogHistogram) String() string {
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%.4g, %.4g): %d\n", h.BinLow(i), h.BinLow(i+1), c)
	}
	return b.String()
}

// Summary holds the moments and quantiles of a sample.
type Summary struct {
	Count          int
	Min, Max       float64
	Mean           float64
	Stddev         float64
	Median         float64
	P90, P99       float64
	Sum            float64
	GiniCoefficent float64
}

// Summarize computes summary statistics of a sample. The Gini
// coefficient quantifies how skewed a distribution is (0 = uniform,
// →1 = concentrated), a compact scalar for the capacity-skew story the
// paper tells about flickr-large (Section 6, "uneven capacity
// distribution").
func Summarize(xs []float64) Summary {
	s := Summary{Count: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(len(sorted))
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(sorted)))
	s.Median = quantile(sorted, 0.5)
	s.P90 = quantile(sorted, 0.9)
	s.P99 = quantile(sorted, 0.99)
	// Gini from the sorted sample: (2Σ i·x_i)/(n Σx) − (n+1)/n.
	if s.Sum > 0 {
		var weighted float64
		for i, x := range sorted {
			weighted += float64(i+1) * x
		}
		n := float64(len(sorted))
		s.GiniCoefficent = 2*weighted/(n*s.Sum) - (n+1)/n
	}
	return s
}

// quantile returns the q-quantile of a sorted sample by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
