package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogHistogramPanicsOnBadArgs(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bins": func() { NewLogHistogram(1, 2, 0) },
		"lo <= 0":   func() { NewLogHistogram(0, 2, 3) },
		"base <= 1": func() { NewLogHistogram(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(1, 2, 6) // edges 1,2,4,8,16,32,64
	for _, x := range []float64{0.5, 1, 1.5, 3, 10, 100, 0, -2} {
		h.Add(x)
	}
	if h.Zero != 2 {
		t.Errorf("Zero = %d, want 2", h.Zero)
	}
	if h.Counts[0] != 3 { // 0.5 (clamped), 1, 1.5
		t.Errorf("bin0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 3
		t.Errorf("bin1 = %d, want 1", h.Counts[1])
	}
	if h.Counts[3] != 1 { // 10 in [8,16)
		t.Errorf("bin3 = %d, want 1", h.Counts[3])
	}
	if h.Counts[5] != 1 { // 100 clamped into last bin
		t.Errorf("bin5 = %d, want 1", h.Counts[5])
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.BinLow(3) != 8 {
		t.Errorf("BinLow(3) = %v", h.BinLow(3))
	}
	if h.String() == "" {
		t.Error("String empty despite counts")
	}
}

func TestLogHistogramBinEdgesConsistent(t *testing.T) {
	h := NewLogHistogram(0.01, 1.5, 30)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		x := math.Exp(rng.NormFloat64())
		h.Add(x)
		// The value must be counted in a bin whose range contains it
		// (modulo clamping at the ends).
	}
	total := h.Zero
	for _, c := range h.Counts {
		total += c
	}
	if total != 5000 {
		t.Errorf("counts sum %d, want 5000", total)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Min != 1 || s.Max != 4 || s.Sum != 10 || s.Mean != 2.5 {
		t.Errorf("summary %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("median %v, want 2.5", s.Median)
	}
	if math.Abs(s.Stddev-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("stddev %v", s.Stddev)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 {
		t.Error("nil summary wrong")
	}
	s := Summarize([]float64{7})
	if s.Median != 7 || s.P90 != 7 || s.P99 != 7 || s.Stddev != 0 {
		t.Errorf("single-value summary %+v", s)
	}
}

func TestGiniCoefficient(t *testing.T) {
	// Uniform sample: Gini = 0.
	uniform := Summarize([]float64{5, 5, 5, 5})
	if math.Abs(uniform.GiniCoefficent) > 1e-12 {
		t.Errorf("uniform gini %v", uniform.GiniCoefficent)
	}
	// Totally concentrated: Gini -> (n-1)/n.
	conc := Summarize([]float64{0, 0, 0, 100})
	if math.Abs(conc.GiniCoefficent-0.75) > 1e-12 {
		t.Errorf("concentrated gini %v, want 0.75", conc.GiniCoefficent)
	}
	// Skewed distributions score between the two.
	skew := Summarize([]float64{1, 2, 4, 100})
	if skew.GiniCoefficent <= uniform.GiniCoefficent || skew.GiniCoefficent >= conc.GiniCoefficent {
		t.Errorf("skewed gini %v out of order", skew.GiniCoefficent)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize sorted the caller's slice")
	}
}

func TestQuantileMonotone(t *testing.T) {
	prop := func(raw []float64, qa, qb uint8) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		// P90 <= P99, Min <= Median <= Max.
		return s.P90 <= s.P99+1e-9 && s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
